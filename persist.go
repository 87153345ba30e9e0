package embellish

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"embellish/internal/bucket"
	"embellish/internal/docstore"
	"embellish/internal/index"
	"embellish/internal/sequence"
	"embellish/internal/vbyte"
	"embellish/internal/wordnet"
)

// Engine persistence bundles the build artifacts — lexicon, live
// segmented index, bucket organization and (optionally) the PIR
// document store — into one file, so a deployment indexes its corpus
// once and both endpoints load the same organization (the protocol
// requires client and server to agree on it exactly).
//
// Version 3 (written by Save): magic "EENG" | version | options |
// lexicon section | organization section | quantization scale f64 |
// next doc id u32 | segment count u32 | one length-prefixed section per
// segment | tombstone section | doc-store section (an absent marker
// when the engine only ranks). Every section is self-checksummed by
// its own codec, so a segment corrupted on disk is caught
// independently of its neighbors.
//
// Version 2 (the pre-retrieval layout, identical up to and including
// the tombstone section) still loads, as an engine without a document
// store. Version 1 (the legacy single-index layout: lexicon | index |
// organization) also still loads, as a live set of one segment with no
// tombstones. Only the tests write either version, as fixtures
// (persist_fixtures_test.go).

const (
	engineMagic   = "EENG"
	engineVersion = 3

	// maxSaneSegments bounds the attacker-controlled segment count
	// during load.
	maxSaneSegments = 1 << 16
)

// Save serializes the engine, capturing one consistent snapshot of the
// live index — and, when present, the document store — even while
// updates continue. The client key pair is NOT part of the engine
// (keys belong to users); only public artifacts are written.
func (e *Engine) Save(w io.Writer) error {
	return e.save(w, engineVersion)
}

// engineState is one consistent captured state of the engine: the
// index snapshot, the document-store snapshot, and — on durable
// engines — the write-ahead-log position the pair corresponds to.
type engineState struct {
	snap  *index.Snapshot
	store *docstore.Snapshot
	// opts is the options struct as of the capture. The header is
	// serialized from this copy, never from live e.opts — a background
	// checkpoint races ConfigureMergePolicy, which replaces e.opts under
	// updateMu.
	opts Options
	// seq is the last journaled operation folded into snap/store; 0 on
	// in-memory engines. Capturing it in the SAME lock hold as the
	// snapshots is what makes checkpoints sound: a seq read in a
	// separate acquisition could race a concurrent AddDocuments and
	// name a state one batch away from the snapshots, making recovery
	// double-apply or drop that batch.
	seq uint64
}

// captureStateLocked captures the engine state; the caller holds
// updateMu.
func (e *Engine) captureStateLocked() engineState {
	st := engineState{snap: e.live.Snapshot(), opts: e.opts}
	if e.store != nil {
		st.store = e.store.Snapshot()
	}
	if e.wal != nil {
		st.seq = e.wal.seq
	}
	return st
}

func (e *Engine) save(w io.Writer, version byte) error {
	// The index and store snapshots are captured under updateMu so the
	// saved pair reflects one point in the update history (each is
	// individually immutable, but a writer landing between two lock-free
	// captures would desynchronize their document counts).
	e.updateMu.Lock()
	st := e.captureStateLocked()
	e.updateMu.Unlock()
	return e.writeState(w, version, st)
}

// writeState serializes one captured state in the given format
// version. Shared by Save and the durability checkpoints.
func (e *Engine) writeState(w io.Writer, version byte, st engineState) error {
	snap, store := st.snap, st.store
	// Never write a file the loader would refuse: with merging disabled
	// a long-lived engine could exceed the load-side segment bound.
	if len(snap.Segs) > maxSaneSegments {
		return fmt.Errorf("embellish: %d segments exceed the loadable bound %d; Compact before saving",
			len(snap.Segs), maxSaneSegments)
	}
	if err := writeEngineHeader(w, version, st.opts); err != nil {
		return err
	}
	if err := writeSection(w, e.lex.db); err != nil {
		return err
	}
	if err := writeSection(w, e.org); err != nil {
		return err
	}
	var fixed [16]byte
	binary.LittleEndian.PutUint64(fixed[0:], math.Float64bits(e.live.Scale()))
	binary.LittleEndian.PutUint32(fixed[8:], uint32(snap.NextDoc))
	binary.LittleEndian.PutUint32(fixed[12:], uint32(len(snap.Segs)))
	if _, err := w.Write(fixed[:]); err != nil {
		return err
	}
	for _, seg := range snap.Segs {
		if err := writeSection(w, seg); err != nil {
			return err
		}
	}
	if err := writeSection(w, tombstonesWriter{ids: snap.Tombs.DocIDs()}); err != nil {
		return err
	}
	if version < 3 {
		return nil
	}
	return writeSection(w, docStoreSection{sn: store})
}

// docStoreSection adapts the docstore codec to the section writer; a
// nil snapshot writes the absent marker.
type docStoreSection struct{ sn *docstore.Snapshot }

func (d docStoreSection) WriteTo(w io.Writer) (int64, error) { return docstore.Write(w, d.sn) }

// writeEngineHeader writes the magic, version and options block shared
// by all format versions, from a captured options copy.
func writeEngineHeader(w io.Writer, version byte, o Options) error {
	if _, err := io.WriteString(w, engineMagic); err != nil {
		return err
	}
	header := []byte{
		version,
		boolByte(o.Stopwords),
		byte(o.Scoring),
	}
	if _, err := w.Write(header); err != nil {
		return err
	}
	var opts [20]byte
	binary.LittleEndian.PutUint32(opts[0:], uint32(o.BucketSize))
	binary.LittleEndian.PutUint32(opts[4:], uint32(o.SegmentSize))
	binary.LittleEndian.PutUint32(opts[8:], uint32(o.KeyBits))
	binary.LittleEndian.PutUint32(opts[12:], uint32(o.ScoreSpace))
	binary.LittleEndian.PutUint32(opts[16:], uint32(o.QuantLevels))
	_, err := w.Write(opts[:])
	return err
}

// LoadEngine deserializes an engine written by Save (version 2) or by a
// pre-live deployment (version 1, loaded as a single segment). The
// loaded engine serves queries — and accepts online updates —
// immediately; clients are created per user as usual.
func LoadEngine(r io.Reader) (*Engine, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("embellish: reading engine magic: %w", err)
	}
	if string(magic[:]) != engineMagic {
		return nil, errors.New("embellish: not an engine file")
	}
	var header [3]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, err
	}
	version := header[0]
	if version < 1 || version > engineVersion {
		return nil, fmt.Errorf("embellish: unsupported engine version %d", version)
	}
	var opts Options
	opts.Stopwords = header[1] != 0
	opts.Scoring = Scoring(header[2])
	var fixed [20]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, err
	}
	opts.BucketSize = int(binary.LittleEndian.Uint32(fixed[0:]))
	opts.SegmentSize = int(binary.LittleEndian.Uint32(fixed[4:]))
	opts.KeyBits = int(binary.LittleEndian.Uint32(fixed[8:]))
	opts.ScoreSpace = int(binary.LittleEndian.Uint32(fixed[12:]))
	opts.QuantLevels = int(binary.LittleEndian.Uint32(fixed[16:]))
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("embellish: engine file options: %w", err)
	}

	db, err := readSection(r, func(sr io.Reader) (*wordnet.Database, error) {
		return wordnet.ReadDatabase(sr)
	})
	if err != nil {
		return nil, fmt.Errorf("embellish: lexicon section: %w", err)
	}

	var org *bucket.Organization
	var live *index.Live
	var store *docstore.Store
	if version == 1 {
		ix, err := readSection(r, func(sr io.Reader) (*index.Index, error) {
			return index.ReadIndex(sr)
		})
		if err != nil {
			return nil, fmt.Errorf("embellish: index section: %w", err)
		}
		org, err = readSection(r, func(sr io.Reader) (*bucket.Organization, error) {
			return bucket.ReadOrganization(sr)
		})
		if err != nil {
			return nil, fmt.Errorf("embellish: organization section: %w", err)
		}
		live = index.NewLive(ix)
	} else {
		org, err = readSection(r, func(sr io.Reader) (*bucket.Organization, error) {
			return bucket.ReadOrganization(sr)
		})
		if err != nil {
			return nil, fmt.Errorf("embellish: organization section: %w", err)
		}
		var fixed2 [16]byte
		if _, err := io.ReadFull(r, fixed2[:]); err != nil {
			return nil, fmt.Errorf("embellish: live header: %w", err)
		}
		scale := math.Float64frombits(binary.LittleEndian.Uint64(fixed2[0:]))
		nextDoc := binary.LittleEndian.Uint32(fixed2[8:])
		nSegs := binary.LittleEndian.Uint32(fixed2[12:])
		if nSegs == 0 || nSegs > maxSaneSegments || nextDoc > 1<<31-1 {
			return nil, fmt.Errorf("embellish: implausible live header: %d segments, next doc %d", nSegs, nextDoc)
		}
		ixs := make([]*index.Index, nSegs)
		for i := range ixs {
			ixs[i], err = readSection(r, func(sr io.Reader) (*index.Index, error) {
				return index.ReadIndex(sr)
			})
			if err != nil {
				return nil, fmt.Errorf("embellish: segment %d: %w", i, err)
			}
		}
		deleted, err := readSection(r, readTombstonesSection)
		if err != nil {
			return nil, fmt.Errorf("embellish: tombstone section: %w", err)
		}
		live, err = index.NewLiveFromParts(ixs, deleted, index.DocID(nextDoc))
		if err != nil {
			return nil, fmt.Errorf("embellish: %w", err)
		}
		if live.Scale() != scale {
			return nil, fmt.Errorf("embellish: header scale %g disagrees with segment scale %g", scale, live.Scale())
		}
		if version >= 3 {
			store, err = readSection(r, docstore.Read)
			if err != nil {
				return nil, fmt.Errorf("embellish: doc-store section: %w", err)
			}
			if store != nil {
				sn := store.Snapshot()
				if sn.NumDocs() != int(nextDoc) {
					return nil, fmt.Errorf("embellish: doc store holds %d documents, index assigned %d",
						sn.NumDocs(), nextDoc)
				}
				// The store's Deleted flags must agree with the index
				// tombstones id by id: a crafted file desynchronizing them
				// would yield ranked-but-unfetchable documents, and a later
				// DeleteDocuments would fail halfway (index applied, store
				// refusing) — permanent inconsistency.
				tombs := live.Snapshot().Tombs
				for id := 0; id < int(nextDoc); id++ {
					ext, _ := sn.Extent(id)
					if ext.Deleted != tombs.Has(index.DocID(id)) {
						return nil, fmt.Errorf("embellish: doc store and index disagree on document %d's deletion", id)
					}
				}
			}
		}
	}
	live.SetMaxSegments(opts.maxSegments())
	if store != nil {
		// The store knobs travel with the store, not the options block:
		// a v2 file (or a store-less v3) loads with them unset.
		opts.StoreDocuments = true
		opts.BlockSize = store.BlockSize()
	}

	e := &Engine{
		opts:  opts,
		lex:   &Lexicon{db: db},
		live:  live,
		org:   org,
		store: store,
	}
	// Rebuild the derived pieces exactly as NewEngine does: the
	// searchable dictionary is the organized terms in Algorithm 1
	// sequence order, the order the privacy audit samples from.
	e.analyzer = buildAnalyzer(db, opts.Stopwords)
	for _, t := range sequence.Run(db) {
		if _, ok := org.BucketOf(t); ok {
			e.searchable = append(e.searchable, t)
		}
	}
	e.applyExecution()
	return e, nil
}

// Tombstone section codec: magic "ETMB" | count vbyte | ids as vbyte
// deltas (first absolute, then gaps) | crc32 of everything before it.
const tombstoneMagic = "ETMB"

type tombstonesWriter struct{ ids []index.DocID }

func (tw tombstonesWriter) WriteTo(w io.Writer) (int64, error) {
	buf := []byte(tombstoneMagic)
	buf = vbyte.Append(buf, uint64(len(tw.ids)))
	prev := index.DocID(0)
	for i, d := range tw.ids {
		if i == 0 {
			buf = vbyte.Append(buf, uint64(d))
		} else {
			buf = vbyte.Append(buf, uint64(d-prev))
		}
		prev = d
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(buf))
	buf = append(buf, tail[:]...)
	n, err := w.Write(buf)
	return int64(n), err
}

func readTombstonesSection(r io.Reader) ([]index.DocID, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < len(tombstoneMagic)+1+4 {
		return nil, errors.New("tombstone section too short")
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("tombstone checksum mismatch; file corrupt")
	}
	if string(payload[:len(tombstoneMagic)]) != tombstoneMagic {
		return nil, errors.New("bad tombstone magic")
	}
	payload = payload[len(tombstoneMagic):]
	count, used, err := vbyte.Decode(payload)
	// Each id costs at least one payload byte, so a count past the
	// remaining payload is forged — reject before allocating.
	if err != nil || count > 1<<31 || count > uint64(len(payload)) {
		return nil, errors.New("implausible tombstone count")
	}
	payload = payload[used:]
	ids := make([]index.DocID, count)
	cur := uint64(0)
	for i := range ids {
		v, used, err := vbyte.Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("tombstone %d: %w", i, err)
		}
		payload = payload[used:]
		if i == 0 {
			cur = v
		} else {
			if v == 0 {
				return nil, errors.New("tombstone ids not strictly increasing")
			}
			cur += v
		}
		if cur > 1<<31-1 {
			return nil, errors.New("tombstone id out of range")
		}
		ids[i] = index.DocID(cur)
	}
	if len(payload) != 0 {
		return nil, errors.New("trailing bytes after tombstones")
	}
	return ids, nil
}

func writeSection(w io.Writer, wt io.WriterTo) error {
	// Buffer the section to learn its length (sections are in-memory
	// artifacts; their size is bounded by the corpus already held in
	// RAM).
	var buf countingBuffer
	if _, err := wt.WriteTo(&buf); err != nil {
		return err
	}
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], uint64(len(buf.data)))
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.data)
	return err
}

func readSection[T any](r io.Reader, decode func(io.Reader) (T, error)) (T, error) {
	var zero T
	var lenb [8]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return zero, err
	}
	n := binary.LittleEndian.Uint64(lenb[:])
	if n > 1<<40 {
		return zero, errors.New("section implausibly large")
	}
	return decode(io.LimitReader(r, int64(n)))
}

type countingBuffer struct{ data []byte }

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
