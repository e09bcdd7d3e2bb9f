package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"
)

// measure is the untraced run: it sets the workload up setupReps times
// (reporting the median as setup_s and keeping the last), then runs passes
// until the measured phase has lasted seconds (at least minPasses of them).
// wall_s is one pass with every timed part at its fastest over the run
// (the rest of the pass counting as one more part), and the rates divide
// one pass's work by it;
// peak_rss_mb is the median over passes of the RSS high-water mark reached
// during the pass, each pass starting from a heap collected and returned to
// the OS.
func measure(e *env, w *workloadDef, seconds float64) (*report, error) {
	var j job
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		if j != nil {
			j.close()
		}
		t0 := time.Now()
		nj, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		j = nj
	}
	defer j.close()

	rep := newReport()
	var walls, rss []float64
	var best []time.Duration // each part's fastest over the passes
	var first passResult
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < seconds; n++ {
		// Every pass starts from a collected heap returned to the OS, as a
		// fresh process would, so its RSS peak holds only what it uses.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		pr, err := j.pass(nil)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.name, n, err)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		parts := append(pr.parts, pr.wall-sum(pr.parts))
		if n == 0 {
			first, best = pr, parts
		} else if pr.digest != first.digest {
			pr.fail("pass %d simulated statistics differ from pass 0", n)
		} else if len(parts) != len(best) {
			pr.fail("pass %d timed %d parts, pass 0 %d", n, len(parts), len(best))
		} else {
			for i, d := range parts {
				best[i] = min(best[i], d)
			}
		}
		for _, note := range pr.notes {
			fmt.Fprintf(os.Stderr, "check failed: %s: %s\n", w.name, note)
		}
		walls = append(walls, pr.wall.Seconds())
		rep.attempted += pr.trials
		rep.failed += pr.failed
	}
	// The shared host has spells, seconds to minutes long, in which the same
	// code runs up to 1.6 times slower. Interference only adds time and
	// comes in bursts, so a part of 0.1 s meets the quiet floor many times a
	// run where a whole pass of 2 s may never (NOTES.md has the
	// measurements).
	wall := sum(best).Seconds()
	fmt.Fprintf(os.Stderr, "%s: %d set-ups %.4v s; %d passes in %.2fs (pass wall min %.4gs, p25 %.4gs, median %.4gs, max %.4gs; fastest parts %.4gs), digest %016x\n",
		w.name, len(setups), setups, len(walls), time.Since(start).Seconds(),
		percentile(walls, 0), percentile(walls, 25), median(walls), percentile(walls, 100), wall, first.digest)
	if !checkDigest(e, w.name, first.digest) {
		fmt.Fprintf(os.Stderr, "check failed: %s: digest %016x does not match the pinned one\n", w.name, first.digest)
		rep.failed++
	}

	rep.set("setup_s", median(setups), "s")
	rep.set("wall_s", wall, "s")
	rep.set("simops_per_s", ratio(float64(first.simops), wall), "1/s")
	rep.set("trials_per_s", ratio(float64(first.trials), wall), "1/s")
	rep.set("peak_rss_mb", median(rss), "MB")
	return rep, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
