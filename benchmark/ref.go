package main

import (
	"strconv"
	"sync/atomic"
	"time"
)

// The reference loop. The reference box is a 2-vCPU guest whose speed
// is not stationary: a hyperthread sibling or a neighbour makes
// everything up to 40 % slower for seconds at a time, and after about a
// minute of load the hypervisor throttles the guest to 30-50 % steal.
// Identical runs then differ by 20-50 % in any statistic of wall time —
// minimum, p10 and median alike (CALIBRATION.md has the numbers).
//
// What does repeat is an op's time relative to a fixed piece of work
// done right beside it. So every timed op is preceded by one run of
// refLoop, the op's sample is its time divided by that loop's time, and
// a row's statistic is a low quartile of those ratios: bursts that hit
// the op push a ratio up, bursts that hit the loop push it down, and
// the quartile below the median sits between the two.
//
// The ratio only cancels a slowdown that slows the loop as much as the
// op, and the box's slow state is selective: it costs an arithmetic
// loop over an L2-resident table 6 % and code that hashes, chases
// pointers and allocates — which is what an engine call mostly does —
// 30-40 %. Measured against either kind of loop alone, the ops' ratios
// drifted 10-20 % over seven minutes; against both, 5 %
// (CALIBRATION.md, section 2). So refLoop does both, for about 0.4 ms
// each:
//
//   - a serial xorshift chain with one dependent load per step from a
//     256 KiB table: integer and floating-point work and L2 traffic;
//   - an interpreter's kind of housekeeping: 200 names looked up 75
//     times each in a string-keyed map of boxed values, through a type
//     assertion. It allocates nothing, so it adds nothing to the
//     allocation metrics of the ops it sits between.
//
// Changing either part rescales every gated timing, so this file is
// part of the benchmark's definition.
const (
	refIters  = 200000
	refRounds = 75
)

var refTable = func() []float64 {
	t := make([]float64, 1<<15)
	for i := range t {
		t[i] = float64(i%97) + 0.5
	}
	return t
}()

var refNames, refEnv = func() ([]string, map[string]any) {
	names := make([]string, 200)
	env := make(map[string]any, len(names))
	for i := range names {
		names[i] = "v" + strconv.Itoa(i*7919%1000)
		env[names[i]] = float64(i) * 1.5
	}
	return names, env
}()

// refSink keeps the loop's result live (atomic: serve-mixed's clients
// run the loop concurrently).
var refSink atomic.Uint64

// refLoop runs the reference loop once and returns how long it took.
func refLoop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	acc := 0.0
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += refTable[x&(1<<15-1)] * 1.0000001
	}
	for r := 0; r < refRounds; r++ {
		for _, name := range refNames {
			if v, ok := refEnv[name].(float64); ok {
				acc += v
			}
		}
	}
	refSink.Add(x + uint64(acc))
	return time.Since(t0)
}

// relQuantile is the quantile of a row's op/reference ratios that the
// gated metric uses; calibration picked it (CALIBRATION.md).
const relQuantile = 0.25
