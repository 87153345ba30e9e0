package embellish

import (
	"strings"
	"testing"
	"time"
)

// TestOptionsValidateExecutionKnobs pins the documented semantics of
// the serving knobs: -1 and 0 are the only special values; anything
// below -1 or past the sanity cap is rejected with an error naming the
// field. The deprecated schedule fields are ignored, never validated.
func TestOptionsValidateExecutionKnobs(t *testing.T) {
	base := DefaultOptions()
	base.KeyBits = 256
	cases := []struct {
		name    string
		mutate  func(*Options)
		wantErr string // empty = must validate
	}{
		{"defaults", func(o *Options) {}, ""},
		{"schedule fields ignored", func(o *Options) {
			o.Shards, o.Parallelism, o.PrecomputeWindow, o.PIRWorkers = -7, 1<<20, 99, -2
		}, ""},
		{"maxsegments disable", func(o *Options) { o.MaxSegments = -1 }, ""},
		{"maxsegments pinned", func(o *Options) { o.MaxSegments = 3 }, ""},
		{"maxsegments below -1", func(o *Options) { o.MaxSegments = -2 }, "MaxSegments"},
		{"maxsegments huge", func(o *Options) { o.MaxSegments = 1<<12 + 1 }, "MaxSegments"},
	}
	for _, tc := range cases {
		o := base
		tc.mutate(&o)
		err := o.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestConfigureMergePolicy checks the runtime merge-policy knob: it is
// validated, applies to loaded engines (MaxSegments is not persisted),
// and -1 really disables background merging.
func TestConfigureMergePolicy(t *testing.T) {
	e, c := liveTestEngine(t, 0)
	if err := e.ConfigureMergePolicy(-2); err == nil {
		t.Fatal("ConfigureMergePolicy(-2) accepted")
	}
	if err := e.ConfigureMergePolicy(-1); err != nil {
		t.Fatalf("disable rejected: %v", err)
	}
	for round := 0; round < 4; round++ {
		if err := e.AddDocuments(moreDocs(e, 2, 60+round)); err != nil {
			t.Fatal(err)
		}
	}
	if e.NumSegments() != 5 {
		t.Fatalf("merging disabled but %d segments, want 5", e.NumSegments())
	}
	// Re-enabling with a tight bound folds the set back down.
	if err := e.ConfigureMergePolicy(2); err != nil {
		t.Fatalf("re-enable rejected: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.NumSegments() > 2 {
		if time.Now().After(deadline) {
			t.Fatalf("merge policy left %d segments", e.NumSegments())
		}
		time.Sleep(time.Millisecond)
	}
	assertClaim1(t, e, c, liveQueries(e)[1])
}
