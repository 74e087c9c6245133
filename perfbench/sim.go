package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"mcgc/internal/experiments"
	"mcgc/internal/runner"
)

// simMaxWarehouses is the warehouse sweep of Fig 1 and Tables 1–3, the
// gcbench default (-k0 8).
const simMaxWarehouses = 8

// simPass is one regeneration of Fig 1, Tables 1–3 and Table 4.
type simPass struct {
	wallS  float64
	expS   [3]float64 // fig1, tracing rates, table4
	jobs   []runner.JobStat
	stats  []runner.Stats
	output string
	match  bool   // output is byte-identical to the expected tables
	spans  []span // pass → experiment → simulate/render, and check
}

type simResult struct {
	setupS []float64
	passes []simPass
	jobs   int
	failed int
	rt     runtimeStats
}

// experimentsScale is the sizing every paper_sim pass uses.
func experimentsScale() experiments.Scale { return experiments.QuickScale() }

// simExec runs the simulator jobs one at a time (the rendered output is
// byte-identical at any parallelism). With two jobs on two processors,
// each job's time depended on which job ran beside it and on the Go
// runtime's collector competing for both, and job times spread about
// twice as much from run to run.
func simExec() *experiments.Exec { return experiments.Seq() }

// runSim sets up (a small Fig 1 sweep, `setups` times), then regenerates the
// three experiments pass after pass, checking every pass's output byte for
// byte against expected. It makes at least one pass, and starts another
// only if one more as long as the last still ends within seconds.
func runSim(expected string, seconds float64, clk func() int64) (*simResult, error) {
	res := &simResult{}
	rt0 := readRuntime()
	sc := experimentsScale()
	for i := 0; i < setups; i++ {
		t := time.Now()
		ex := simExec()
		experiments.Fig1(ex, sc, 1)
		res.setupS = append(res.setupS, time.Since(t).Seconds())
	}
	start := time.Now()
	for len(res.passes) == 0 || time.Since(start).Seconds()+res.passes[len(res.passes)-1].wallS <= seconds {
		p := simOnce(sc, expected, clk)
		res.jobs += len(p.jobs)
		if !p.match {
			res.failed++
			return res, fmt.Errorf("paper_sim: pass %d output differs from the expected tables:\n%s",
				len(res.passes)+1, firstDiff(expected, p.output))
		}
		res.passes = append(res.passes, p)
	}
	res.rt = readRuntime().since(rt0)
	return res, nil
}

func simOnce(sc experiments.Scale, expected string, clk func() int64) simPass {
	ex := simExec()
	var p simPass
	var out strings.Builder
	open := func(name string, parent int) int {
		p.spans = append(p.spans, span{Name: name, Start: clk(), Parent: parent})
		return len(p.spans) - 1
	}
	closeSpan := func(i int) int64 {
		p.spans[i].End = clk()
		return p.spans[i].End - p.spans[i].Start
	}
	root := open("pass", -1)
	// The output is framed the way gcbench prints these sections, without
	// its timing lines, so expected/paper_sim.txt is gcbench's own output.
	section := func(name, text string) { fmt.Fprintf(&out, "==== %s ====\n\n%s\n\n\n", name, text) }
	experiment := func(i int, name string, simulate func(), render func()) {
		e := open(name, root)
		s := open("simulate", e)
		simulate()
		closeSpan(s)
		r := open("render", e)
		render()
		closeSpan(r)
		p.expS[i] = float64(closeSpan(e)) / 1e9
		for _, st := range ex.TakeStats() {
			p.stats = append(p.stats, st)
			p.jobs = append(p.jobs, st.Jobs...)
		}
	}
	var fig1 []experiments.Fig1Row
	experiment(0, "experiments.fig1",
		func() { fig1 = experiments.Fig1(ex, sc, simMaxWarehouses) },
		func() { section("fig1", experiments.RenderFig1(fig1)) })
	var rates []experiments.TracingRateResult
	experiment(1, "experiments.tracing_rates",
		func() { rates = experiments.TracingRates(ex, sc, nil, simMaxWarehouses) },
		func() {
			section("table1", experiments.RenderTable1(rates))
			section("table2", experiments.RenderTable2(rates))
			section("table3", experiments.RenderTable3(rates))
		})
	var t4 []experiments.Table4Row
	experiment(2, "experiments.table4",
		func() { t4 = experiments.Table4(ex, sc, nil, 1000) },
		func() { section("table4", experiments.RenderTable4(t4)) })
	c := open("check", root)
	p.output = out.String()
	p.match = p.output == expected
	closeSpan(c)
	p.wallS = float64(closeSpan(root)) / 1e9
	return p
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, a, b)
		}
	}
	return "(lengths differ)"
}

func readExpected(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("paper_sim: expected output: %w", err)
	}
	return string(b), nil
}
