package main

// calib.go takes the machine's speed out of the end-to-end times. The
// sandboxes this benchmark runs in are small guests on shared hosts: with
// nothing else running in the guest and no CPU time stolen from it, the same
// code runs up to 1.6 times slower for minutes at a time, and the phases
// outlast a run. The workloads and a fixed reference kernel slow down
// together (see README.md, "Reference speed"), so every run times the kernel
// between its ops and reports each duration scaled to the speed at which the
// kernel takes refKernelMs.

import (
	"math/big"
	"math/bits"
	"sort"
	"time"
)

// refKernelMs is the kernel's time at reference speed: what it takes in a
// calm phase of the sandbox the benchmark was built in. A duration measured
// while the kernel takes twice as long is reported halved.
const refKernelMs = 4.0

// calMargin is how far from a timed interval a kernel sample may lie and
// still say how fast the machine was during it.
const calMargin = time.Second

// The kernel's operands: a 512-bit modulus and two residues for its first
// part, 64 KB of odd words and a one-word modulus for its second.
var (
	calN, calX, calY = func() (n, x, y *big.Int) {
		n = new(big.Int).Lsh(big.NewInt(1), 511)
		n.Add(n, big.NewInt(187))
		return n, new(big.Int).Lsh(big.NewInt(3), 500), new(big.Int).Lsh(big.NewInt(5), 499)
	}()
	calWords = func() []uint64 {
		ws := make([]uint64, 8192)
		for i := range ws {
			ws[i] = uint64(i)*0x9e3779b97f4a7c15 | 1
		}
		return ws
	}()
	calSink uint64
)

const (
	calMod    = 0xffffffffffffffc5 // the largest 64-bit prime
	calModInv = 0xcbeea4e1a08ad8f3 // -calMod^-1 mod 2^64
)

// calKernel is the reference kernel, the two kinds of arithmetic this
// repository is made of, three parts to one in time: a chain of 7,500 modular
// multiplications on math/big with a fresh result each step (ranking and
// decryption), then 147,456 one-word Montgomery products in eight independent
// lanes over a buffer that stays in cache (the PIR scan). It is the standard
// library's code and this file's, so no change to the repository moves it.
func calKernel() {
	x := calX
	for range 7500 {
		z := new(big.Int).Mul(x, calY)
		x = z.Mod(z, calN)
	}
	calSink += x.Uint64()

	lanes := [8]uint64{3, 5, 7, 11, 13, 17, 19, 23}
	for range 18 {
		for i := 0; i+len(lanes) <= len(calWords); i += len(lanes) {
			for j := range lanes {
				hi, lo := bits.Mul64(lanes[j], calWords[i+j])
				mh, ml := bits.Mul64(lo*calModInv, calMod)
				_, carry := bits.Add64(lo, ml, 0)
				r, over := bits.Add64(hi, mh, carry)
				if over != 0 || r >= calMod {
					r -= calMod
				}
				lanes[j] = r
			}
		}
	}
	for _, v := range lanes {
		calSink += v
	}
}

// calibrator keeps the kernel's times of one run, in the order taken.
type calibrator struct {
	at []time.Time // when each sample started
	ms []float64   // what it took
}

// sample times the kernel reps times.
func (c *calibrator) sample(reps int) {
	for range reps {
		t0 := time.Now()
		calKernel()
		c.at = append(c.at, t0)
		c.ms = append(c.ms, ms(time.Since(t0)))
	}
}

// spend times the kernel until budget is used up, and at least once.
func (c *calibrator) spend(budget time.Duration) {
	for t0 := time.Now(); ; {
		c.sample(1)
		if time.Since(t0) >= budget {
			return
		}
	}
}

// kernelMs is the kernel's median time over the samples taken between from
// and to and within calMargin of them; over all the run's samples should
// there be none that close.
func (c *calibrator) kernelMs(from, to time.Time) float64 {
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(from.Add(-calMargin)) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(to.Add(calMargin)) })
	if lo == hi {
		lo, hi = 0, len(c.at)
	}
	return median(c.ms[lo:hi])
}

// atRef scales d, measured between from and to, to reference speed.
func (c *calibrator) atRef(d time.Duration, from, to time.Time) time.Duration {
	return time.Duration(float64(d) * refKernelMs / c.kernelMs(from, to))
}
