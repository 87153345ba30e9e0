package embellish

import (
	"fmt"
	"io"
)

// The fixture writers of the engine formats the loader still reads:
// nothing outside the tests writes version 1 or 2, and the tests are the
// writer of record for those fixtures (persist_golden_test.go).

// saveV2 writes the pre-retrieval format, readable by deployments that
// predate the document store; any store is dropped.
func (e *Engine) saveV2(w io.Writer) error {
	return e.save(w, 2)
}

// saveV1 writes the legacy single-index format, readable by pre-live
// deployments. It refuses engines whose live state the format cannot
// express (more than one segment, or tombstones); Compact first, unless
// documents were deleted — deletions make ids sparse, which v1 cannot
// carry.
func (e *Engine) saveV1(w io.Writer) error {
	snap := e.live.Snapshot()
	if len(snap.Segs) != 1 || snap.Tombs.Count() != 0 {
		return fmt.Errorf("embellish: v1 format cannot express %d segments with %d deletions",
			len(snap.Segs), snap.Tombs.Count())
	}
	if err := writeEngineHeader(w, 1, e.opts); err != nil {
		return err
	}
	for _, section := range []io.WriterTo{e.lex.db, snap.Segs[0], e.org} {
		if err := writeSection(w, section); err != nil {
			return err
		}
	}
	return nil
}
