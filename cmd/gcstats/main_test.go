package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// ev is one trace_event record for building test traces.
type ev map[string]any

func meta(tid int, name string) ev {
	return ev{"ph": "M", "pid": 1, "tid": tid, "name": "thread_name", "args": map[string]any{"name": name}}
}

func spanEv(tid int, name string, ts, dur float64) ev {
	return ev{"ph": "X", "pid": 1, "tid": tid, "name": name, "ts": ts, "dur": dur}
}

func cycleEv(tid, worker int, ts, dur float64) ev {
	e := spanEv(tid, "tracer.cycle", ts, dur)
	e["args"] = map[string]any{"worker": worker}
	return e
}

// goodTrace is a well-formed trace: a driver track with five span types
// nested inside one cycle, and one tracer lane carrying one worker.
func goodTrace() []ev {
	return []ev{
		meta(1, "gc driver"),
		meta(2, "tracer d0"),
		spanEv(1, "stw.init", 0, 10),
		spanEv(1, "mark.concurrent", 10, 50),
		spanEv(1, "stw.final", 60, 20),
		spanEv(1, "final.oracle", 65, 5),
		spanEv(1, "sweep", 80, 10),
		spanEv(1, "cycle", 0, 90), // an enclosing span may follow its children
		cycleEv(2, 0, 10, 50),
		cycleEv(2, 0, 100, 20),
		{"ph": "i", "pid": 1, "tid": 1, "name": "kickoff", "ts": 0},
		{"ph": "C", "pid": 1, "tid": 1, "name": "heap", "ts": 0, "args": map[string]any{"live": 1}},
	}
}

func writeTrace(t *testing.T, evs []ev) string {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckTraceAcceptsWellFormed(t *testing.T) {
	if err := checkTrace(writeTrace(t, goodTrace())); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
}

func TestCheckTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		edit func([]ev) []ev
		want string
	}{
		{"partial overlap", func(evs []ev) []ev {
			return append(evs, spanEv(1, "card.pass", 85, 20)) // straddles cycle's end at 90
		}, "partially overlaps"},
		{"renamed track", func(evs []ev) []ev {
			return append(evs, meta(1, "other"))
		}, "renamed"},
		{"lane with two workers", func(evs []ev) []ev {
			return append(evs, cycleEv(2, 1, 200, 10))
		}, "workers"},
		{"negative duration", func(evs []ev) []ev {
			return append(evs, spanEv(1, "card.pass", 95, -1))
		}, "negative span duration"},
		{"too few span types", func(evs []ev) []ev {
			return []ev{meta(1, "gc driver"), spanEv(1, "stw.init", 0, 10), spanEv(1, "sweep", 20, 10)}
		}, "distinct span types"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := checkTrace(writeTrace(t, c.edit(goodTrace())))
			if err == nil {
				t.Fatal("malformed trace accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func writeJSONL(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadRunsParsesRecords(t *testing.T) {
	path := writeJSONL(t,
		`{"type":"suite","meta":{"scale":"quick","j":1}}`,
		`{"type":"run","run":{"name":"r1","collector":"live"}}`,
		`{"type":"counter","run":"r1","name":"live.cycles","value":7}`,
		`{"type":"gauge","run":"r1","name":"gc.pause_ns","at_ns":[10,20],"v":[1.5,2.5]}`,
		`{"type":"hist","run":"r1","name":"lat","bounds":[1,2],"counts":[1,2,0],"sum":4,"min":0.5,"max":2}`,
	)
	runs, err := readRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].name != "r1" || runs[0].collector != "live" {
		t.Fatalf("runs = %+v", runs)
	}
	r := runs[0]
	if r.counters["live.cycles"] != 7 {
		t.Errorf("counter live.cycles = %d, want 7", r.counters["live.cycles"])
	}
	g := r.gauges["gc.pause_ns"]
	if len(g.at) != 2 || g.at[1] != 20 || g.v[1] != 2.5 {
		t.Errorf("gauge gc.pause_ns = %+v", g)
	}
	h := r.hists["lat"]
	if h == nil || h.N() != 3 {
		t.Fatalf("hist lat = %+v, want 3 observations", h)
	}
}

func TestReadRunsRejectsUnknownType(t *testing.T) {
	path := writeJSONL(t,
		`{"type":"run","run":{"name":"r1","collector":"live"}}`,
		`{"type":"bogus","run":"r1"}`,
	)
	_, err := readRuns(path)
	if err == nil {
		t.Fatal("unknown record type accepted")
	}
	if want := path + ":2:"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q lacks position %q", err, want)
	}
}

// TestMain runs the command itself when re-executed by
// TestFlagWithoutSubcommandExits2, so main's exit code can be observed.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("GCSTATS_MAIN_ARGS"); ok {
		os.Args = append([]string{"gcstats"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFlagWithoutSubcommandExits2(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "GCSTATS_MAIN_ARGS=-metrics f")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("gcstats -metrics f: err %v, want exit status 2", err)
	}
	if !strings.Contains(stderr.String(), "usage: gcstats <subcommand>") {
		t.Fatalf("stderr lacks the usage:\n%s", stderr.String())
	}
}
