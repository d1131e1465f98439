package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

// quantile is one order statistic together with the sample it came from.
// A percentile means little without its sample count: p90 of 100
// latencies rests on the 10 slowest, p99 on one.
type quantile struct {
	q     float64 // in [0, 1]
	value float64
	n     int // sample size
	above int // samples strictly beyond the rank the value sits at
}

func (qt quantile) String() string {
	return fmt.Sprintf("%.4g (p%g of n=%d, %d beyond)", qt.value, 100*qt.q, qt.n, qt.above)
}

// percentile returns the q-quantile of xs by linear interpolation between
// closest ranks (the definition numpy and statistics.quantiles(...,
// method="inclusive") use). It sorts xs in place. An empty sample gives
// NaN.
func percentile(xs []float64, q float64) quantile {
	qt := quantile{q: q, n: len(xs), value: math.NaN()}
	if len(xs) == 0 {
		return qt
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	qt.value = xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
	qt.above = len(xs) - 1 - hi
	return qt
}

// median is the 0.5-quantile's value; it does not modify xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5).value
}

// cpuTicks returns the host-stolen and total CPU time, in clock ticks,
// summed over all CPUs since boot (the "cpu" line of /proc/stat).
func cpuTicks() (steal, total uint64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, field := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(string(field), 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" && string(f[2]) == "kB" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
