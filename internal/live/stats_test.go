package live

import (
	"reflect"
	"testing"
	"time"

	"mcgc/internal/telemetry"
)

// TestEngineStatsFillReport pins the name mapping finishReport's copy loop
// relies on: every engineStats atomic has a Report field of the same name
// that can hold an int64.
func TestEngineStatsFillReport(t *testing.T) {
	st := reflect.TypeOf(engineStats{})
	rt := reflect.TypeOf(Report{})
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		f, ok := rt.FieldByName(name)
		if !ok {
			t.Errorf("engineStats.%s has no Report field of the same name", name)
			continue
		}
		if f.Type.Kind() != reflect.Int64 {
			t.Errorf("Report.%s is %v, want an int64 kind", name, f.Type)
		}
	}
}

// TestMetricTags checks the Report's metric tags: non-empty, unique, on
// integer fields, and each one written by a run with a registry, carrying
// the field's value.
func TestMetricTags(t *testing.T) {
	rt := reflect.TypeOf(Report{})
	fields := map[string]int{} // metric name -> Report field index
	for i := 0; i < rt.NumField(); i++ {
		name, ok := rt.Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		if name == "" {
			t.Errorf("Report.%s has an empty metric tag", rt.Field(i).Name)
			continue
		}
		if prev, dup := fields[name]; dup {
			t.Errorf("metric %q tags both Report.%s and Report.%s", name, rt.Field(prev).Name, rt.Field(i).Name)
		}
		switch rt.Field(i).Type.Kind() {
		case reflect.Int, reflect.Int64:
		default:
			t.Errorf("Report.%s (metric %q) is %v, want an integer", rt.Field(i).Name, name, rt.Field(i).Type)
		}
		fields[name] = i
	}
	if len(fields) == 0 {
		t.Fatal("no metric-tagged Report fields")
	}

	reg := telemetry.NewRegistry()
	e := NewEngine(Config{
		Objects: 4096, Mutators: 2, Tracers: 1, Duration: 100 * time.Millisecond,
		ObserveOptions: ObserveOptions{Reg: reg},
	})
	rep := e.Run()
	written := map[string]int64{}
	for _, c := range reg.Counters() {
		written[c.Name()] = c.Value()
	}
	rv := reflect.ValueOf(rep)
	for name, i := range fields {
		got, ok := written[name]
		if !ok {
			t.Errorf("metric %q (Report.%s) was not written", name, rt.Field(i).Name)
			continue
		}
		if want := rv.Field(i).Int(); got != want {
			t.Errorf("metric %q = %d, Report.%s = %d", name, got, rt.Field(i).Name, want)
		}
	}
}
