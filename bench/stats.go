package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// how the benchmark's spread criterion is stated.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadPct is the interquartile range as a percentage of the median.
func spreadPct(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return 100 * (q3 - q1) / med
}

// hist is a latency histogram over nanoseconds: exact below 256 ns,
// then 128 linear buckets per power of two (under 0.8% relative
// error). It has a fixed size and is allocated before the load starts:
// keeping raw samples instead grew the process heap by 8 bytes a
// request, which spaced the collector's cycles further apart as a run
// went on, and rewrite_hot's p99 fell to a quarter within one run.
type hist [histBuckets]uint32

const histBuckets = 256 + 33*128 // up to 2⁴¹ ns, about 36 minutes

func histIndex(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 256 {
		return int(v)
	}
	shift := bits.Len64(v) - 8
	return min(256+(shift-1)*128+int(v>>shift)-128, histBuckets-1)
}

// bucket returns bucket i's lower bound and width in ns.
func bucket(i int) (lo, width float64) {
	if i < 256 {
		return float64(i), 1
	}
	shift := (i-256)/128 + 1
	top := uint64((i-256)%128 + 128)
	return float64(top << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) { h[histIndex(ns)]++ }

func (h *hist) merge(o *hist) {
	for i, c := range o {
		h[i] += c
	}
}

func (h *hist) count() int64 {
	var n int64
	for _, c := range h {
		n += int64(c)
	}
	return n
}

// quantileMs returns the q-quantile in ms: the sample of rank
// floor(q·n), placed within its bucket by its rank there.
func (h *hist) quantileMs(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := min(int64(q*float64(n)), n-1)
	var below int64
	for i, c := range h {
		if rank < below+int64(c) {
			lo, width := bucket(i)
			return (lo + width*(float64(rank-below)+0.5)/float64(c)) / 1e6
		}
		below += int64(c)
	}
	return 0 // not reached: rank < n
}

// controlNs times a fixed stdlib-only CPU kernel (sort and hash of a
// fixed 32k-word array) reps times and returns the samples in ns. Its
// drift between two result sets means the machine changed, not the
// program.
func controlNs(reps int) []float64 {
	xs := make([]uint32, 1<<15)
	buf := make([]byte, 4*len(xs))
	out := make([]float64, reps)
	for r := range out {
		x := uint32(2463534242)
		for i := range xs {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			xs[i] = x
		}
		start := time.Now()
		slices.Sort(xs)
		for i, v := range xs {
			binary.LittleEndian.PutUint32(buf[4*i:], v)
		}
		controlSink = sha256.Sum256(buf)
		out[r] = float64(time.Since(start).Nanoseconds())
	}
	return out
}

var controlSink [32]byte

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	ms := memStats()
	return float64(ms.Sys) / (1 << 20)
}
