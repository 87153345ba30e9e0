package embellish

import (
	"fmt"
	"io"

	"embellish/internal/wal"
	"embellish/internal/wire"
)

// Replication turns the write-ahead log into a shipping lane: a read
// replica reports its last applied sequence number (TypeWALPull) and
// the primary answers with the raw crc-framed journal records the
// replica is missing (TypeWALChunk). The replica applies them through
// the ordinary public update path, journaling locally as it goes — its
// own WALSeq therefore tracks the primary's operation numbering
// exactly, which is what makes "caught up" a single integer
// comparison.

// maxWALChunkBytes caps one shipped chunk; a replica that is far
// behind catches up over several pulls instead of one giant frame.
const maxWALChunkBytes = 8 << 20

// ErrReplicationGap reports that the journal suffix a replica needs
// has been retired by a checkpoint on the primary. Incremental
// catch-up is impossible; re-bootstrap the replica from the primary's
// engine file or newest checkpoint.
var ErrReplicationGap = wal.ErrShipGap

// WALChunk is one shipped slice of a primary's journal.
type WALChunk struct {
	// PrimarySeq is the primary's newest journaled operation at pull
	// time — the replica's staleness target.
	PrimarySeq uint64
	// LastSeq is the last record shipped in Records, or the requested
	// afterSeq when Records is empty (caught up).
	LastSeq uint64
	// More reports a chunk truncated at the size cap (or cut short by
	// an append still in flight); pull again immediately.
	More bool
	// Records holds raw crc-framed journal records for
	// Engine.ApplyReplicated.
	Records []byte
}

// WALRecordsAfter collects the journal suffix with sequence numbers
// greater than after, up to maxBytes (<= 0 for unlimited; at least one
// record is always shipped when one exists). The error wraps
// ErrReplicationGap when a checkpoint has retired the suffix.
func (e *Engine) WALRecordsAfter(after uint64, maxBytes int) (WALChunk, error) {
	e.updateMu.Lock()
	ws := e.wal
	if ws == nil {
		e.updateMu.Unlock()
		return WALChunk{}, errNotDurable
	}
	dir := ws.cfg.Dir
	primary := ws.seq
	e.updateMu.Unlock()
	if after > primary {
		return WALChunk{}, fmt.Errorf("embellish: replica at seq %d is ahead of primary at seq %d", after, primary)
	}
	if after == primary {
		return WALChunk{PrimarySeq: primary, LastSeq: after}, nil
	}
	records, last, more, err := wal.CollectAfter(dir, after, maxBytes)
	if err != nil {
		return WALChunk{}, err
	}
	if last == after {
		// The primary is ahead but nothing after `after` remains on
		// disk: the suffix was folded into a checkpoint and retired.
		return WALChunk{}, fmt.Errorf("%w: primary at seq %d has no journal records after %d",
			ErrReplicationGap, primary, after)
	}
	if last > primary {
		// Records landed between the seq read and the collection; the
		// snapshot is still consistent, just newer.
		primary = last
	}
	return WALChunk{
		PrimarySeq: primary,
		LastSeq:    last,
		// A collection cut short by an in-flight append (torn tail)
		// reports More too, so the replica re-pulls instead of idling a
		// full poll interval behind.
		More:    more || last < primary,
		Records: records,
	}, nil
}

// ApplyReplicated applies one shipped chunk through the engine's
// public update path: every operation record continues the local
// sequence (records at or below it are skipped as duplicates, a gap is
// an error), and on a durable engine each apply journals locally — the
// replica's own WALSeq ends the chunk equal to the last applied
// record's sequence number. It returns the number of operations
// applied.
func (e *Engine) ApplyReplicated(records []byte) (int, error) {
	seq := uint64(0)
	if ws, ok := e.WALStatus(); ok {
		seq = ws.Seq
	}
	applied := 0
	err := wal.DecodeShipped(records, func(rec *wal.Record) error {
		if rec.Op == wal.OpCheckpoint || rec.Seq <= seq {
			return nil
		}
		if rec.Seq != seq+1 {
			return fmt.Errorf("embellish: replicated record seq %d does not continue local seq %d", rec.Seq, seq)
		}
		switch rec.Op {
		case wal.OpAddDocs:
			docs := make([]Document, len(rec.Docs))
			for i, d := range rec.Docs {
				docs[i] = Document{ID: int(d.ID), Text: string(d.Text)}
			}
			if err := e.AddDocuments(docs); err != nil {
				return err
			}
		case wal.OpDeleteDocs:
			ids := make([]int, len(rec.IDs))
			for i, id := range rec.IDs {
				ids[i] = int(id)
			}
			if err := e.DeleteDocuments(ids); err != nil {
				return err
			}
		default:
			return fmt.Errorf("embellish: replicated record with unknown op %d", rec.Op)
		}
		seq++
		applied++
		return nil
	})
	return applied, err
}

// answerWALPull serves one replica catch-up request: shipping journal
// bytes is cheap sequential I/O, so it bypasses admission.
func (s *NetServer) answerWALPull(req *netRequest) error {
	after, err := wire.DecodeWALPull(req.Body)
	if err != nil {
		return err
	}
	c, err := s.engine.WALRecordsAfter(after, maxWALChunkBytes)
	if err != nil {
		return err
	}
	return wire.WriteWALChunk(req.W, wire.WALChunk{
		PrimarySeq: c.PrimarySeq,
		LastSeq:    c.LastSeq,
		More:       c.More,
		Records:    c.Records,
	})
}

// SetReplicaStatus wires a replication-lag probe into the server's
// stats surface: fn reports the primary's newest known sequence number
// (ok false while no pull has succeeded yet). Call it on a replica's
// NetServer so TypeStats and /metrics expose staleness.
func (s *NetServer) SetReplicaStatus(fn func() (primarySeq uint64, ok bool)) {
	s.replicaStatus.Store(&fn)
}

// PullWAL fetches one catch-up chunk from a primary over an open
// protocol connection: every journal record after afterSeq, capped at
// the primary's chunk size.
func PullWAL(conn io.ReadWriter, afterSeq uint64) (WALChunk, error) {
	if err := wire.WriteWALPull(conn, afterSeq); err != nil {
		return WALChunk{}, fmt.Errorf("embellish: sending WAL pull: %w", err)
	}
	body, err := readReply(conn, wire.TypeWALChunk, "WAL chunk")
	if err != nil {
		return WALChunk{}, err
	}
	c, err := wire.DecodeWALChunk(body)
	if err != nil {
		return WALChunk{}, err
	}
	return WALChunk{PrimarySeq: c.PrimarySeq, LastSeq: c.LastSeq, More: c.More, Records: c.Records}, nil
}
