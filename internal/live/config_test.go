package live

import (
	"strings"
	"testing"
	"time"

	"mcgc/internal/pacing"
)

func TestValidateErrors(t *testing.T) {
	base := func() Config {
		return Config{Objects: 1 << 12, Mutators: 2, Tracers: 1, Duration: 100 * time.Millisecond}
	}
	cases := []struct {
		name  string
		mut   func(*Config)
		field string // substring every message must carry
	}{
		{"negative objects", func(c *Config) { c.Objects = -1 }, "Objects"},
		{"negative refs", func(c *Config) { c.RefsPerObject = -2 }, "RefsPerObject"},
		{"negative mutators", func(c *Config) { c.Mutators = -1 }, "Mutators"},
		{"negative tracers", func(c *Config) { c.Tracers = -3 }, "Tracers"},
		{"negative duration", func(c *Config) { c.Duration = -time.Second }, "Duration"},
		{"pacing k0", func(c *Config) { c.Pacing = &pacing.Config{K0: -1} }, "Pacing.K0"},
		{"slo target", func(c *Config) {
			c.SLO = &pacing.SLOConfig{Target: -time.Millisecond}
		}, "SLO.Target"},
		{"slo floor", func(c *Config) {
			c.SLO = &pacing.SLOConfig{Target: time.Millisecond, FloorK: 1.5}
		}, "SLO.FloorK"},
		{"slo bg bounds", func(c *Config) {
			c.SLO = &pacing.SLOConfig{Target: time.Millisecond, BgMin: 4, BgMax: 2}
		}, "SLO.BgMin"},
		{"slo alpha", func(c *Config) {
			c.SLO = &pacing.SLOConfig{Target: time.Millisecond, Alpha: 2}
		}, "SLO.Alpha"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), "live: config: "+tc.field) {
				t.Fatalf("error %q does not name %s in the shared vocabulary", err, tc.field)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestValidateJoinsAllProblems(t *testing.T) {
	cfg := Config{Objects: -1, Mutators: -1, Tracers: 1, Duration: time.Millisecond}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("no error")
	}
	for _, field := range []string{"Objects", "Mutators"} {
		if !strings.Contains(err.Error(), field) {
			t.Fatalf("joined error %q missing %s", err, field)
		}
	}
}

func TestNewEnginePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewEngine accepted an invalid config")
		}
		if !strings.Contains(r.(error).Error(), "live: config: Objects") {
			t.Fatalf("panic %v does not use the config error vocabulary", r)
		}
	}()
	NewEngine(Config{Objects: -5, Mutators: 1, Tracers: 1, Duration: time.Millisecond})
}

// TestDisableCollectionRun: with collection disabled the engine runs the
// mutators against a static arena — no cycles, no pauses, no policy — which
// is exactly the distillation baseline's contract.
func TestDisableCollectionRun(t *testing.T) {
	cfg := Config{
		Objects:  1 << 14, // big enough that the mutators don't exhaust it in 200ms
		Mutators: 2,
		Tracers:  1,
		Duration: 200 * time.Millisecond,
		Seed:     7,
	}
	cfg.PacingOptions = PacingOptions{DisableCollection: true}
	e := NewEngine(cfg)
	if e.PacingPolicy() != nil {
		t.Fatal("collection-disabled engine built a pacing policy")
	}
	rep := e.Run()
	if rep.Cycles != 0 {
		t.Fatalf("collection-disabled run collected %d cycles", rep.Cycles)
	}
	if rep.STWCount != 0 {
		t.Fatalf("collection-disabled run paused %d times", rep.STWCount)
	}
	if rep.PacingPolicy != "none" {
		t.Fatalf("policy = %q, want none", rep.PacingPolicy)
	}
	if rep.MutatorOps == 0 {
		t.Fatal("mutators made no progress")
	}
}

// TestSLOPolicyWiring: a config with an SLO target builds the SLO policy,
// exposes it through PacingPolicy (for the latency feed) and reports its
// stats; feeding over-target windows mid-run must engage the controller.
func TestSLOPolicyWiring(t *testing.T) {
	cfg := Config{
		Objects:  1 << 12,
		Mutators: 2,
		Tracers:  1,
		Duration: 300 * time.Millisecond,
		Seed:     3,
	}
	cfg.SLO = &pacing.SLOConfig{Formula: pacing.Default(), Target: time.Millisecond}
	e := NewEngine(cfg)
	obs, ok := e.PacingPolicy().(pacing.LatencyObserver)
	if !ok {
		t.Fatalf("policy %T is not a LatencyObserver", e.PacingPolicy())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			obs.ObserveLatency(int64(5 * time.Millisecond)) // 5x over target
			time.Sleep(10 * time.Millisecond)
		}
	}()
	rep := e.Run()
	<-done
	if rep.PacingPolicy != "slo" {
		t.Fatalf("report policy = %q, want slo", rep.PacingPolicy)
	}
	if rep.SLOWindows == 0 {
		t.Fatal("report lost the controller's window count")
	}
	if rep.SLOOverTarget == 0 {
		t.Fatal("5x-over-target windows not counted as over target")
	}
	if rep.SLOBgFactor >= 1 {
		t.Fatalf("bg factor %v under sustained overshoot, want < 1", rep.SLOBgFactor)
	}
	if rep.LostObjects != 0 || len(rep.Violations) > 0 {
		t.Fatalf("oracle violations under the SLO policy: lost=%d %v", rep.LostObjects, rep.Violations)
	}
}
