package pacing

import "flag"

// This file is the shared command-line vocabulary for the Section 3
// parameters: every command that exposes pacing knobs (gcsim, gcbench,
// gcstress, gcserve) binds the same flag names onto a Config, so a -k0
// means the same thing everywhere.

// Bind registers the canonical pacing vocabulary on fs, parsing into cfg;
// cfg's current values become the flag defaults.
func Bind(fs *flag.FlagSet, cfg *Config) {
	BindRate(fs, &cfg.K0)
	fs.Float64Var(&cfg.KMax, "kmax", cfg.KMax, "cap on the adaptive tracing rate (0 = 2*K0)")
	fs.Float64Var(&cfg.C, "tracing-c", cfg.C, "corrective coefficient: the rate used is K+(K-K0)*C when tracing is behind schedule")
	fs.Float64Var(&cfg.SmoothAlpha, "smooth-alpha", cfg.SmoothAlpha, "exponential smoothing factor for the L, M and Best predictors")
	fs.Float64Var(&cfg.InitialDirtyFraction, "dirty-fraction", cfg.InitialDirtyFraction, "seed for the dirty-card predictor M before any cycle history")
	fs.Int64Var(&cfg.Headroom, "kickoff-headroom", cfg.Headroom, "words added to the kickoff threshold: start (and aim to finish) tracing this early")
	fs.Int64Var(&cfg.BestWindow, "best-window", cfg.BestWindow, "allocation window for sampling the background tracing rate Best (0 = backend default)")
	fs.Float64Var(&cfg.PressureTaxFactor, "pressure-tax", cfg.PressureTaxFactor, "tracing-rate multiplier for allocators blocked on backpressure (0 = default 2.0)")
}

// BindSLO registers the latency-feedback controller's vocabulary on fs,
// parsing into cfg. The Section 3 parameters inside cfg.Formula are NOT
// bound here — bind them with Bind against the same underlying Config so
// -k0 and friends keep one spelling; -slo-p99 0 (the default) leaves the
// SLO policy off entirely.
func BindSLO(fs *flag.FlagSet, cfg *SLOConfig) {
	fs.DurationVar(&cfg.Target, "slo-p99", cfg.Target, "request-latency target for the SLO pacing policy (0 = formula policy)")
	fs.Float64Var(&cfg.Gain, "slo-gain", cfg.Gain, "proportional gain of the SLO controller (0 = default 1.0)")
	fs.Float64Var(&cfg.FloorK, "slo-floor-k", cfg.FloorK, "lowest fraction of the formula tracing rate the controller may shave the mutator tax to (0 = default 0.25)")
	fs.Float64Var(&cfg.BgMin, "slo-bg-min", cfg.BgMin, "hottest background-throttle factor under latency pressure (0 = default 0.125)")
	fs.Float64Var(&cfg.BgMax, "slo-bg-max", cfg.BgMax, "laziest background-throttle factor when latency is under target (0 = default 4.0)")
	fs.Float64Var(&cfg.Alpha, "slo-alpha", cfg.Alpha, "smoothing factor for the observed latency windows (0 = default 0.3)")
	fs.Float64Var(&cfg.KickoffBoost, "slo-kickoff-boost", cfg.KickoffBoost, "cap on the kickoff-threshold multiplier under latency pressure (0 = default 2.0)")
}

// BindRate registers only the tracing-rate flags (-k0 and -tracing-rate,
// the paper's name for the same knob), for commands whose remaining pacing
// parameters are fixed by experiment definitions.
func BindRate(fs *flag.FlagSet, k0 *float64) {
	fs.Float64Var(k0, "k0", *k0, "desired tracing rate K0: words traced per word allocated")
	fs.Var(fs.Lookup("k0").Value, "tracing-rate", "synonym for -k0")
}
