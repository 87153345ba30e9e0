package embellish

// Head-to-head benchmarks of the ranking fold's schedules against the
// Algorithm 4 oracle, on a synthetic world of >= 1000 documents. The
// BenchmarkProcess1k* variants run the identical embellished query
// through:
//
//   - Sequential / PrecomputedOnly: the math/big oracle (Process),
//     without and with fixed-base tables
//   - SeedParallel:       the serving plan at one shard, no tables
//   - ShardedOnly:        GOMAXPROCS shards, no tables
//   - ShardedPrecomputed: GOMAXPROCS shards with fixed-base tables —
//                         what a server runs
//
// Responses are identical across all of them, ciphertext for ciphertext
// (internal/core's conformance battery); only the arithmetic and its
// schedule differ.

import (
	"sync"
	"testing"

	"embellish/internal/core"
	"embellish/internal/eval"
)

var (
	bigBenchOnce sync.Once
	bigBenchEnv  *eval.Env
	bigBenchErr  error
)

// bigBenchConfig is the >= 1000-document world used by the pipeline
// comparison benchmarks.
func bigBenchConfig() eval.Config {
	cfg := eval.DefaultConfig()
	cfg.Synsets = 2500
	cfg.NumDocs = 1200
	cfg.MeanDocLen = 80
	cfg.KeyBits = 256
	cfg.QuerySize = 12
	return cfg
}

func bigBenchEnvGet(b *testing.B) *eval.Env {
	b.Helper()
	bigBenchOnce.Do(func() {
		bigBenchEnv, bigBenchErr = eval.NewEnv(bigBenchConfig())
	})
	if bigBenchErr != nil {
		b.Fatalf("environment: %v", bigBenchErr)
	}
	return bigBenchEnv
}

// bigBenchQuery builds one embellished 12-term query and a server over
// the 1200-document world.
func bigBenchQuery(b *testing.B) (*core.Query, *core.Server) {
	b.Helper()
	e := bigBenchEnvGet(b)
	org, err := e.Organization(8, 0)
	if err != nil {
		b.Fatal(err)
	}
	client := core.NewClient(org, e.PRKey, 1)
	client.CryptoRand = e.Rand
	genuine := benchGenuine(e, 12)
	q, _, err := client.Embellish(genuine)
	if err != nil {
		b.Fatal(err)
	}
	return q, core.NewServer(e.Index, org, e.DB)
}

func BenchmarkProcess1kSequential(b *testing.B) {
	q, server := bigBenchQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := server.Process(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcess1kSeedParallel(b *testing.B) {
	q, server := bigBenchQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := server.ProcessParallel(q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcess1kShardedPrecomputed(b *testing.B) {
	q, server := bigBenchQuery(b)
	server.SetSharding(-1) // GOMAXPROCS shards
	server.SetPrecompute(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := server.ProcessParallel(q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcess1kShardedOnly(b *testing.B) {
	q, server := bigBenchQuery(b)
	server.SetSharding(-1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := server.ProcessParallel(q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProcess1kPrecomputedOnly(b *testing.B) {
	q, server := bigBenchQuery(b)
	server.SetPrecompute(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := server.Process(q); err != nil {
			b.Fatal(err)
		}
	}
}
