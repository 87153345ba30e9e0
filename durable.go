package embellish

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"embellish/internal/wal"
)

// Crash-safe durability: since the index mutates online (AddDocuments /
// DeleteDocuments), a crash between Save calls would silently lose
// every accepted update. A durable engine therefore keeps a directory
// of full checkpoints plus a write-ahead log (internal/wal): every
// admin mutation is journaled under the write lock BEFORE the
// index/store swap is published, and Checkpoint periodically folds the
// log into a fresh snapshot, rotating to a new log segment and
// retiring everything the snapshot covers. OpenDurable recovers the
// newest loadable checkpoint, replays the log suffix (truncating a
// torn tail cleanly), and resumes journaling where the crash stopped.
//
// The recovery invariant: the recovered engine is exactly the state
// after some PREFIX of the journaled operation sequence — the
// operations whose records fully reached the disk — never a torn
// half-state. With FsyncEveryRecord that prefix includes every
// operation that was acknowledged to a caller.

// FsyncPolicy selects when journal records reach stable storage; see
// the constants for the guarantee each buys.
type FsyncPolicy int

const (
	// FsyncEveryRecord syncs the log after every journaled operation:
	// an acknowledged update survives any crash. The default.
	FsyncEveryRecord FsyncPolicy = iota
	// FsyncInterval syncs on a background interval
	// (Durability.FsyncEvery): a crash loses at most the last
	// interval's updates, in exchange for ingest at nearly in-memory
	// speed.
	FsyncInterval
	// FsyncNever leaves flushing to the operating system: updates
	// survive process crashes (the page cache persists) but not power
	// or kernel failures.
	FsyncNever
)

const (
	// DefaultCheckpointOps is the automatic-checkpoint threshold when
	// Durability.CheckpointEveryOps is zero.
	DefaultCheckpointOps = 256
	// DefaultCheckpointBytes is the automatic-checkpoint threshold when
	// Durability.CheckpointEveryBytes is zero.
	DefaultCheckpointBytes = 64 << 20
)

// Durability configures a crash-safe engine (Options.Durability, or
// EnableDurability on an existing engine). The zero value — an empty
// Dir — disables durability.
type Durability struct {
	// Dir is the durable state directory: checkpoint files plus
	// write-ahead log segments. Created if missing.
	Dir string
	// Fsync is the journal flush policy; the zero value is
	// FsyncEveryRecord.
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period; 0 selects
	// wal.DefaultSyncInterval (100ms).
	FsyncEvery time.Duration
	// CheckpointEveryOps triggers an automatic background checkpoint
	// (on engines driven through a NetServer) after this many journaled
	// operations: 0 selects DefaultCheckpointOps, -1 disables the
	// trigger. Checkpoints bound both recovery time and log growth.
	CheckpointEveryOps int
	// CheckpointEveryBytes triggers on journal bytes instead: 0 selects
	// DefaultCheckpointBytes, -1 disables.
	CheckpointEveryBytes int64
}

// validate rejects unusable durability configurations. An empty Dir is
// valid (durability off) but the remaining knobs are range-checked
// regardless, so OpenDurable can carry policy in an Options value whose
// Dir is supplied separately.
func (d Durability) validate() error {
	if d.Fsync < FsyncEveryRecord || d.Fsync > FsyncNever {
		return fmt.Errorf("embellish: unknown Durability.Fsync policy %d", d.Fsync)
	}
	if d.FsyncEvery < 0 {
		return fmt.Errorf("embellish: Durability.FsyncEvery %v is negative", d.FsyncEvery)
	}
	if d.CheckpointEveryOps < -1 {
		return fmt.Errorf("embellish: Durability.CheckpointEveryOps %d out of range; -1 disables, 0 selects the default", d.CheckpointEveryOps)
	}
	if d.CheckpointEveryBytes < -1 {
		return fmt.Errorf("embellish: Durability.CheckpointEveryBytes %d out of range; -1 disables, 0 selects the default", d.CheckpointEveryBytes)
	}
	return nil
}

// syncPolicy maps the facade policy onto the wal package's.
func (d Durability) syncPolicy() wal.SyncPolicy {
	switch d.Fsync {
	case FsyncInterval:
		return wal.SyncInterval
	case FsyncNever:
		return wal.SyncNever
	}
	return wal.SyncEveryRecord
}

// opsLimit resolves CheckpointEveryOps (0 default, -1 disabled -> 0).
func (d Durability) opsLimit() int64 {
	switch {
	case d.CheckpointEveryOps == 0:
		return DefaultCheckpointOps
	case d.CheckpointEveryOps < 0:
		return 0
	}
	return int64(d.CheckpointEveryOps)
}

// bytesLimit resolves CheckpointEveryBytes likewise.
func (d Durability) bytesLimit() int64 {
	switch {
	case d.CheckpointEveryBytes == 0:
		return DefaultCheckpointBytes
	case d.CheckpointEveryBytes < 0:
		return 0
	}
	return d.CheckpointEveryBytes
}

// walState is a durable engine's journaling state. The non-atomic
// fields are guarded by Engine.updateMu, like the rest of the write
// path; the counters are atomics so checkpoint triggers can read them
// from any goroutine.
type walState struct {
	cfg Durability
	w   *wal.Writer
	// seq is the last journaled operation; checkpoint files and log
	// segments are named after the seq they cover/follow.
	seq uint64
	// logStart is the current log segment's name; lastCkpt the newest
	// durable checkpoint's.
	logStart uint64
	lastCkpt uint64
	// lastCkptAt is when the newest checkpoint landed — wall-clock
	// feedstock for the metrics surface's checkpoint age. On recovery
	// it comes from the checkpoint file's mtime.
	lastCkptAt time.Time
	closed     bool
	// asyncErr records the last background-checkpoint failure
	// (surfaced via WALStatus; the next synchronous Checkpoint or
	// Close also reports errors directly).
	asyncErr error

	opsSinceCkpt   atomic.Int64
	bytesSinceCkpt atomic.Int64
	flight         atomic.Bool
}

// errNotDurable is returned by durability entry points on engines
// without a configured Durability.
var errNotDurable = errors.New("embellish: engine has no durability directory (Options.Durability or EnableDurability)")

// errEngineClosed is returned by the write path after Close.
var errEngineClosed = errors.New("embellish: engine is closed")

// HasDurableState reports whether dir holds recoverable durable engine
// state (at least one checkpoint file). A missing directory is simply
// false.
func HasDurableState(dir string) (bool, error) {
	st, err := wal.Scan(dir)
	if err != nil {
		return false, err
	}
	return len(st.Checkpoints) > 0, nil
}

// EnableDurability attaches crash-safe durability to an engine built
// in memory (NewEngine with Options.Durability does this implicitly)
// or loaded from a plain engine file: it writes the initial checkpoint
// — the engine's current state, sequence number 0 — and opens the
// first log segment. The directory must not already hold durable
// state; recover that with OpenDurable instead.
func (e *Engine) EnableDurability(d Durability) error {
	if d.Dir == "" {
		return errors.New("embellish: Durability.Dir is required")
	}
	if err := d.validate(); err != nil {
		return err
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if e.wal != nil {
		return errors.New("embellish: engine is already durable")
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return fmt.Errorf("embellish: durability dir: %w", err)
	}
	st, err := wal.Scan(d.Dir)
	if err != nil {
		return fmt.Errorf("embellish: durability dir: %w", err)
	}
	if len(st.Checkpoints) > 0 || len(st.Logs) > 0 {
		return fmt.Errorf("embellish: %s already holds durable state; recover it with OpenDurable", d.Dir)
	}
	// A crash loop during THIS initialization (killed inside the
	// checkpoint-0 write, before any rename lands) re-enters here each
	// boot; sweep its stranded temp files like OpenDurable does, or
	// they would accumulate forever — nothing else ever touches *.tmp.
	sweepCheckpointTmp(d.Dir)
	ws := &walState{cfg: d}
	if err := e.writeCheckpointFile(ws, e.captureStateLocked()); err != nil {
		return err
	}
	ws.lastCkptAt = time.Now()
	w, err := wal.Create(wal.LogPath(d.Dir, 0), 0, d.syncPolicy(), d.FsyncEvery)
	if err == nil {
		if _, err = w.Append(&wal.Record{Op: wal.OpCheckpoint, Seq: 0}); err != nil {
			w.Close()
			os.Remove(wal.LogPath(d.Dir, 0))
		}
	}
	if err != nil {
		// Unwind the checkpoint too, so a retry does not find a dir
		// that "already holds durable state".
		os.Remove(wal.CheckpointPath(d.Dir, 0))
		return fmt.Errorf("embellish: opening journal: %w", err)
	}
	ws.w = w
	e.wal = ws
	e.opts.Durability = d
	return nil
}

// OpenDurable recovers a durable engine from dir: it loads the newest
// loadable checkpoint, replays every log segment at or after it in
// sequence order — stopping cleanly at a torn tail, erroring on any
// gap or in-record corruption — and resumes journaling into the
// recovered log. The recovered state is always the state after some
// prefix of the journaled operations (see WALStatus().Seq for which).
//
// opts supplies only the runtime Durability policy (fsync mode,
// checkpoint thresholds; opts.Durability.Dir is ignored in favor of
// dir). Everything indexed — options, lexicon, organization, segments,
// store — comes from the checkpoint file, exactly as with LoadEngine,
// and the engine runs the execution schedule a built one does; the
// runtime merge and recursive-serving policies are reapplied afterwards
// with the Configure* methods as usual.
func OpenDurable(dir string, opts Options) (*Engine, error) {
	d := opts.Durability
	d.Dir = dir
	if err := d.validate(); err != nil {
		return nil, err
	}
	st, err := wal.Scan(dir)
	if err != nil {
		return nil, fmt.Errorf("embellish: durability dir: %w", err)
	}
	if len(st.Checkpoints) == 0 {
		return nil, fmt.Errorf("embellish: %s holds no durable engine state (create it with NewEngine and Options.Durability)", dir)
	}
	sweepCheckpointTmp(dir)
	// Newest checkpoint first; fall back across corrupt ones. A torn
	// in-flight checkpoint never appears here — checkpoints are written
	// to a temp file and renamed into place only when complete.
	var e *Engine
	var ckptSeq uint64
	var loadErr error
	for i := len(st.Checkpoints) - 1; i >= 0; i-- {
		seq := st.Checkpoints[i]
		f, err := os.Open(wal.CheckpointPath(dir, seq))
		if err != nil {
			loadErr = err
			continue
		}
		e, err = LoadEngine(f)
		f.Close()
		if err == nil {
			ckptSeq = seq
			break
		}
		e, loadErr = nil, fmt.Errorf("checkpoint %d: %w", seq, err)
	}
	if e == nil {
		return nil, fmt.Errorf("embellish: no loadable checkpoint in %s: %w", dir, loadErr)
	}

	// Replay the log chain. Normally one segment follows the newest
	// checkpoint; a crash inside Checkpoint (rotated, snapshot not yet
	// durable) leaves two, chained by their sequence numbers.
	lastSeq := ckptSeq
	var lastLog uint64
	var lastRes wal.ReplayResult
	var tailBytes int64
	hasLog := false
	for _, ls := range st.Logs {
		if ls < ckptSeq {
			continue // fully covered by the checkpoint; awaiting retirement
		}
		if ls > lastSeq {
			return nil, fmt.Errorf("embellish: log segment %s starts after operation %d with operations %d..%d missing",
				wal.LogPath(dir, ls), lastSeq, lastSeq+1, ls)
		}
		if hasLog && lastRes.Torn {
			// A torn tail is a crash signature and can only be the END of
			// the journal; a later segment contradicts it.
			return nil, fmt.Errorf("embellish: log segment %s is torn mid-chain", wal.LogPath(dir, lastLog))
		}
		res, err := wal.ReplayLog(wal.LogPath(dir, ls), ls, func(rec *wal.Record) error {
			return e.applyRecord(rec, &lastSeq)
		})
		if err != nil {
			return nil, fmt.Errorf("embellish: replaying %s: %w", wal.LogPath(dir, ls), err)
		}
		lastLog, lastRes, hasLog = ls, res, true
		if res.GoodBytes > int64(wal.HeaderSize) {
			tailBytes += res.GoodBytes - int64(wal.HeaderSize)
		}
	}

	ws := &walState{cfg: d, seq: lastSeq, lastCkpt: ckptSeq}
	// The recovered checkpoint's age survives the restart through its
	// file mtime; a stat failure leaves the zero time ("age unknown").
	if fi, err := os.Stat(wal.CheckpointPath(dir, ckptSeq)); err == nil {
		ws.lastCkptAt = fi.ModTime()
	}
	// Seed the automatic-checkpoint counters with the replayed tail:
	// a crash-loop of short-lived boots must still cross the
	// thresholds, or the log chain (and every restart's replay) would
	// grow without bound — the exact growth the thresholds exist to
	// cap. WALStatus likewise reports the true replay debt.
	ws.opsSinceCkpt.Store(int64(lastSeq - ckptSeq))
	ws.bytesSinceCkpt.Store(tailBytes)
	if hasLog {
		// Resume the recovered segment, truncating any torn tail so a
		// lost append can never precede new records.
		ws.w, err = wal.Open(wal.LogPath(dir, lastLog), lastLog, lastRes.GoodBytes, d.syncPolicy(), d.FsyncEvery)
		ws.logStart = lastLog
	} else {
		// The crash landed between the checkpoint rename and the log
		// creation: start the segment the checkpoint expects.
		ws.w, err = wal.Create(wal.LogPath(dir, ckptSeq), ckptSeq, d.syncPolicy(), d.FsyncEvery)
		if err == nil {
			if _, err = ws.w.Append(&wal.Record{Op: wal.OpCheckpoint, Seq: ckptSeq}); err != nil {
				// Unwind like every other half-born-segment path: leave
				// no stray file (or interval flusher) behind a failure.
				ws.w.Close()
				os.Remove(wal.LogPath(dir, ckptSeq))
			}
		}
		ws.logStart = ckptSeq
	}
	if err != nil {
		return nil, fmt.Errorf("embellish: reopening journal: %w", err)
	}
	e.wal = ws
	e.opts.Durability = d
	return e, nil
}

// applyRecord replays one journal record onto the recovering engine,
// enforcing sequence continuity: operations must arrive exactly in
// order, records already covered by the checkpoint are skipped, and a
// checkpoint marker may never claim a sequence the replay has not
// reached.
func (e *Engine) applyRecord(rec *wal.Record, lastSeq *uint64) error {
	switch rec.Op {
	case wal.OpCheckpoint:
		if rec.Seq > *lastSeq {
			return fmt.Errorf("checkpoint marker %d beyond replayed operation %d", rec.Seq, *lastSeq)
		}
		return nil
	case wal.OpAddDocs, wal.OpDeleteDocs:
		if rec.Seq <= *lastSeq {
			return nil // already folded into the checkpoint
		}
		if rec.Seq != *lastSeq+1 {
			return fmt.Errorf("journal gap: operation %d follows %d", rec.Seq, *lastSeq)
		}
		var err error
		if rec.Op == wal.OpAddDocs {
			docs := make([]Document, len(rec.Docs))
			for i, d := range rec.Docs {
				docs[i] = Document{ID: int(d.ID), Text: string(d.Text)}
			}
			err = e.addDocuments(docs, false)
		} else {
			ids := make([]int, len(rec.IDs))
			for i, id := range rec.IDs {
				ids[i] = int(id)
			}
			err = e.deleteDocuments(ids, false)
		}
		if err != nil {
			return fmt.Errorf("operation %d: %w", rec.Seq, err)
		}
		*lastSeq = rec.Seq
		return nil
	}
	return fmt.Errorf("unknown journal op %d", rec.Op)
}

// journalLocked appends one operation record to the write-ahead log.
// The caller holds updateMu and has fully validated the operation —
// after this returns nil the apply must succeed, or recovery would
// replay an operation the live engine rejected. Called BEFORE the
// index/store swap: an operation is acknowledged only once journaled.
func (e *Engine) journalLocked(rec *wal.Record) error {
	if e.wal == nil {
		return nil
	}
	if e.wal.closed {
		return errEngineClosed
	}
	rec.Seq = e.wal.seq + 1
	n, err := e.wal.w.Append(rec)
	if err != nil {
		return fmt.Errorf("embellish: journaling update: %w", err)
	}
	e.wal.seq++
	e.wal.opsSinceCkpt.Add(1)
	e.wal.bytesSinceCkpt.Add(int64(n))
	return nil
}

// Checkpoint folds the journal into a fresh durable snapshot: it
// captures the index, the document store and the journal position
// under ONE hold of the write lock (so the snapshot and its sequence
// number can never disagree — a checkpoint neither double-applies nor
// drops a journaled batch), rotates the log so later operations land
// in a new segment, writes the snapshot to a temporary file, renames
// it into place, and retires every file the new checkpoint covers.
//
// Writers are blocked only for the capture and rotation (microseconds,
// not the snapshot write); searches are never blocked. A crash at ANY
// point leaves a recoverable directory: until the rename lands, the
// previous checkpoint plus the full log chain reconstruct the same
// state.
func (e *Engine) Checkpoint() error {
	e.updateMu.Lock()
	ws := e.wal
	if ws == nil {
		e.updateMu.Unlock()
		return errNotDurable
	}
	if ws.closed {
		e.updateMu.Unlock()
		return errEngineClosed
	}
	st := e.captureStateLocked()
	if st.seq == ws.lastCkpt && st.seq == ws.logStart {
		e.updateMu.Unlock()
		return nil // nothing journaled since the last checkpoint
	}
	var old *wal.Writer
	var prevOps, prevBytes int64
	rotated := false
	if st.seq != ws.logStart {
		// The outgoing segment must be durable BEFORE its successor
		// exists: under FsyncInterval/FsyncNever a power cut between
		// the two would otherwise tear the old segment's tail while
		// the new one survives — a mid-chain tear recovery rightly
		// refuses, turning "lose at most the last interval" into "lose
		// the directory". Syncing first keeps tears confined to the
		// journal's true tail.
		if err := ws.w.Sync(); err != nil {
			e.updateMu.Unlock()
			return fmt.Errorf("embellish: syncing journal before rotation: %w", err)
		}
		path := wal.LogPath(ws.cfg.Dir, st.seq)
		nw, err := wal.Create(path, st.seq, ws.cfg.syncPolicy(), ws.cfg.FsyncEvery)
		if err == nil {
			if _, err = nw.Append(&wal.Record{Op: wal.OpCheckpoint, Seq: st.seq}); err != nil {
				// Don't strand a half-born segment: a retry's Create
				// would otherwise collide with it forever.
				nw.Close()
				os.Remove(path)
			}
		}
		if err != nil {
			e.updateMu.Unlock()
			return fmt.Errorf("embellish: rotating journal: %w", err)
		}
		old = ws.w
		ws.w = nw
		ws.logStart = st.seq
		prevOps = ws.opsSinceCkpt.Swap(0)
		prevBytes = ws.bytesSinceCkpt.Swap(0)
		rotated = true
	} else {
		// No rotation (the log already starts at st.seq — e.g. recovery
		// reopened a rotated-but-never-snapshotted segment), yet the
		// counters may still carry the replay debt up to st.seq. Read
		// it under the same hold as the capture; it is settled below
		// only once the snapshot is durable.
		prevOps = ws.opsSinceCkpt.Load()
		prevBytes = ws.bytesSinceCkpt.Load()
	}
	e.updateMu.Unlock()

	// The rotation already synced the outgoing segment under the lock;
	// Close just releases it. If the snapshot write below fails, the
	// old chain remains the state of record, so its close error joins
	// that failure — but once the snapshot lands, the retired
	// segment's fate is irrelevant to durability and must not turn a
	// completed checkpoint into a reported failure.
	var closeErr error
	if old != nil {
		closeErr = old.Close()
	}
	if err := e.writeCheckpointFile(ws, st); err != nil {
		if rotated {
			// The rotation's counter reset presumed the snapshot would
			// land; put the debt back so the automatic trigger retries
			// instead of waiting out a whole fresh threshold while the
			// unpaid log chain keeps growing. (Add, not Store: ops may
			// have accrued since the reset.)
			ws.opsSinceCkpt.Add(prevOps)
			ws.bytesSinceCkpt.Add(prevBytes)
		}
		return errors.Join(err, closeErr)
	}
	e.updateMu.Lock()
	advanced := st.seq > ws.lastCkpt
	if advanced {
		ws.lastCkpt = st.seq
	}
	// Even a same-sequence re-checkpoint refreshes the snapshot file,
	// so the metrics-facing age resets either way.
	ws.lastCkptAt = time.Now()
	// A completed checkpoint clears any stale background failure:
	// WALStatus should report current health, not history.
	ws.asyncErr = nil
	e.updateMu.Unlock()
	if !rotated && advanced {
		// Settle the pre-capture debt now that the snapshot covers it;
		// operations journaled since the capture keep their counts.
		// (The rotated path settled by Swap(0) at rotation; the
		// `advanced` gate keeps two concurrent checkpoints of the same
		// sequence from each subtracting the same debt.)
		ws.opsSinceCkpt.Add(-prevOps)
		ws.bytesSinceCkpt.Add(-prevBytes)
	}
	e.retire(ws.cfg.Dir, st.seq)
	return nil
}

// writeCheckpointFile writes one captured state as checkpoint seq,
// atomically: temp file, fsync, rename, directory fsync. Readers of
// the directory therefore only ever see complete checkpoints.
func (e *Engine) writeCheckpointFile(ws *walState, st engineState) error {
	f, err := os.CreateTemp(ws.cfg.Dir, "checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("embellish: checkpoint: %w", err)
	}
	tmp := f.Name()
	err = e.writeState(f, engineVersion, st)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, wal.CheckpointPath(ws.cfg.Dir, st.seq))
	}
	if err == nil {
		err = wal.SyncDir(ws.cfg.Dir)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("embellish: checkpoint: %w", err)
	}
	return nil
}

// sweepCheckpointTmp removes snapshot temp files stranded by a crash
// mid-checkpoint. Only called while no writer can be racing (recovery
// and first-time initialization, both before the engine serves): a
// live engine's in-flight temp file must never be yanked from under
// its rename.
func sweepCheckpointTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if name := ent.Name(); !ent.IsDir() && strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// retire removes checkpoints and log segments fully covered by the
// checkpoint at seq. Best effort: leftovers are ignored by recovery
// and retired again by the next checkpoint.
func (e *Engine) retire(dir string, seq uint64) {
	st, err := wal.Scan(dir)
	if err != nil {
		return
	}
	for _, c := range st.Checkpoints {
		if c < seq {
			os.Remove(wal.CheckpointPath(dir, c))
		}
	}
	for _, l := range st.Logs {
		if l < seq {
			os.Remove(wal.LogPath(dir, l))
		}
	}
}

// checkpointDue reports whether the automatic-checkpoint thresholds
// are exceeded. Readable from any goroutine.
func (ws *walState) checkpointDue() bool {
	if ops := ws.cfg.opsLimit(); ops > 0 && ws.opsSinceCkpt.Load() >= ops {
		return true
	}
	if bytes := ws.cfg.bytesLimit(); bytes > 0 && ws.bytesSinceCkpt.Load() >= bytes {
		return true
	}
	return false
}

// maybeCheckpointAsync starts one background checkpoint when the
// thresholds are exceeded and none is already running. NetServers call
// this after every applied admin operation; failures are sticky in
// WALStatus and also surface from the next synchronous Checkpoint.
func (e *Engine) maybeCheckpointAsync() {
	e.updateMu.Lock()
	ws := e.wal
	e.updateMu.Unlock()
	if ws == nil || !ws.checkpointDue() || !ws.flight.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer ws.flight.Store(false)
		// Loop until the thresholds are satisfied: operations journaled
		// WHILE a checkpoint runs found the flight flag held and dropped
		// their trigger, so the worker re-checks before retiring.
		for {
			if err := e.Checkpoint(); err != nil {
				e.updateMu.Lock()
				ws.asyncErr = err
				e.updateMu.Unlock()
				return
			}
			if !ws.checkpointDue() {
				return
			}
		}
	}()
}

// checkpointIfDirty checkpoints when operations were journaled since
// the last checkpoint — the graceful-shutdown hook.
func (e *Engine) checkpointIfDirty() error {
	e.updateMu.Lock()
	ws := e.wal
	dirty := ws != nil && !ws.closed && (ws.seq != ws.lastCkpt || ws.seq != ws.logStart)
	e.updateMu.Unlock()
	if !dirty {
		return nil
	}
	return e.Checkpoint()
}

// Durable reports whether the engine journals its updates to a
// write-ahead log.
func (e *Engine) Durable() bool {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	return e.wal != nil
}

// WALStatus describes a durable engine's journal position.
type WALStatus struct {
	// Dir is the durable state directory.
	Dir string
	// Seq is the last journaled operation; CheckpointSeq the newest
	// durable checkpoint. Recovery replays the difference.
	Seq, CheckpointSeq uint64
	// OpsSinceCheckpoint and BytesSinceCheckpoint are the automatic-
	// checkpoint trigger counters.
	OpsSinceCheckpoint, BytesSinceCheckpoint int64
	// LastAsyncError is the most recent background-checkpoint failure,
	// empty when healthy.
	LastAsyncError string
	// LastCheckpointAt is when the newest checkpoint landed (the file's
	// mtime after recovery); the zero time means unknown.
	LastCheckpointAt time.Time
}

// WALStatus reports the durable engine's journal position; ok is false
// on engines without durability.
func (e *Engine) WALStatus() (WALStatus, bool) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	ws := e.wal
	if ws == nil {
		return WALStatus{}, false
	}
	st := WALStatus{
		Dir:                  ws.cfg.Dir,
		Seq:                  ws.seq,
		CheckpointSeq:        ws.lastCkpt,
		OpsSinceCheckpoint:   ws.opsSinceCkpt.Load(),
		BytesSinceCheckpoint: ws.bytesSinceCkpt.Load(),
		LastCheckpointAt:     ws.lastCkptAt,
	}
	if ws.asyncErr != nil {
		st.LastAsyncError = ws.asyncErr.Error()
	}
	return st, true
}

// Close releases the durable engine's journal: buffered records are
// flushed and the log file closed. It does NOT checkpoint — recovery
// replays the log — and it does not affect searches; only later
// updates fail. A no-op on engines without durability.
func (e *Engine) Close() error {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if e.wal == nil || e.wal.closed {
		return nil
	}
	e.wal.closed = true
	return e.wal.w.Close()
}
