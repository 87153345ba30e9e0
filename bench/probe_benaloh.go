package main

// probe_benaloh.go: the Benaloh cryptosystem at the world's key size — what
// a client pays per flag it encrypts and per candidate it decrypts, and what
// the server pays per fixed-base table and per posting's power.

import (
	"math/big"
	"math/rand"
	"time"

	"embellish"
	"embellish/internal/benaloh"
)

func (t *traceRun) probeBenaloh() error {
	opts := embellish.DefaultOptions() // the plaintext space and impact range every world keeps
	r := benaloh.Pow3(opts.ScoreSpace)
	var key *benaloh.PrivateKey
	keygen, err := timeMedian(3, ms, func() (err error) {
		key, err = benaloh.GenerateKey(nil, t.w.spec.KeyBits, r)
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("benaloh.keygen_ms", keygen, "ms", 3)

	const reps = 200
	rng := rand.New(rand.NewSource(t.cfg.seed))
	scores := make([]*big.Int, reps)
	i := 0
	encrypt, err := timeMedian(reps, us, func() (err error) {
		// Scores as decoding sees them: sums of a few quantized impacts.
		scores[i], err = key.EncryptInt(nil, rng.Int63n(int64(4*opts.QuantLevels)))
		i++
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("benaloh.encrypt_us", encrypt, "us", reps)
	i = 0
	decrypt, err := timeMedian(reps, us, func() error {
		_, err := key.DecryptInt(scores[i])
		i++
		return err
	})
	if err != nil {
		return err
	}
	t.m.set("benaloh.decrypt_us", decrypt, "us", reps)

	flag, err := key.EncryptInt(nil, 1)
	if err != nil {
		return err
	}
	var table *benaloh.FixedBase
	build, err := timeMedian(50, us, func() error {
		table = key.NewFixedBase(flag, int64(opts.QuantLevels), 0)
		return nil
	})
	if err != nil {
		return err
	}
	t.m.set("benaloh.fixedbase_build_us", build, "us", 50)
	const pows = 1 << 14
	t0 := time.Now()
	for e := 0; e < pows; e++ {
		table.Pow(int64(1 + e%opts.QuantLevels))
	}
	t.m.set("benaloh.fixedbase_pow_ns", float64(time.Since(t0))/pows, "ns", pows)
	return nil
}
