package embellish

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"

	"embellish/internal/bucket"
	"embellish/internal/wire"
	"embellish/internal/wordnet"
)

// Server-assisted lexicon sync: the protocol requires every client to
// know the engine's bucket organization and synset tables EXACTLY —
// before this surface existed, that meant shipping the engine file out
// of band. SyncLexicon lets a remote client of a loaded engine fetch
// the client-side world (organization, lexicon, analyzer settings, key
// parameters) over the wire, so a machine that has never seen the
// engine file can embellish queries that are byte-compatible with
// in-process clients. The payload is public knowledge in the paper's
// threat model (Section 3: the adversary knows the organization); the
// gate (ServeConfig.AllowLexiconSync) exists for operational exposure
// control, not secrecy.

// ErrStaleLexicon reports that the server's lexicon version differs
// from the one this client synced: its bucket organization is out of
// date, and queries embellished with it would be malformed. Re-sync
// with SyncLexicon.
var ErrStaleLexicon = errors.New("embellish: " + wire.StaleLexiconRefusal)

// lexsyncState caches the engine's serialized sync payload: the
// organization and lexicon are pinned at construction, so the bytes
// are computed once and reused for every TypeLexiconSync request.
type lexsyncState struct {
	once    sync.Once
	payload wire.Lexicon
	err     error
}

// lexiconPayload returns the engine's (cached) full sync payload.
func (e *Engine) lexiconPayload() (wire.Lexicon, error) {
	e.lexsync.once.Do(func() {
		var org, lex bytes.Buffer
		if _, err := e.org.WriteTo(&org); err != nil {
			e.lexsync.err = fmt.Errorf("embellish: serializing organization: %w", err)
			return
		}
		if _, err := e.lex.db.WriteTo(&lex); err != nil {
			e.lexsync.err = fmt.Errorf("embellish: serializing lexicon: %w", err)
			return
		}
		l := wire.Lexicon{
			ScoreSpace: e.opts.ScoreSpace,
			KeyBits:    e.opts.KeyBits,
			Stopwords:  e.opts.Stopwords,
			Org:        org.Bytes(),
			Lex:        lex.Bytes(),
		}
		// The version is a content hash over everything the payload
		// carries, so two engines built from the same lexicon and corpus
		// agree and any drift (re-bucketing, different options) is loud.
		h := fnv.New64a()
		h.Write(l.Org)
		h.Write(l.Lex)
		fmt.Fprintf(h, "|%d|%d|%t", l.ScoreSpace, l.KeyBits, l.Stopwords)
		l.Version = h.Sum64()
		if l.Version == 0 {
			l.Version = 1 // 0 means "full fetch" on the wire
		}
		e.lexsync.payload = l
	})
	return e.lexsync.payload, e.lexsync.err
}

// LexiconVersion returns the engine's lexicon-sync version: a content
// hash over the bucket organization, the synset tables, and the
// client-relevant options. Clients compare it via CheckLexicon.
func (e *Engine) LexiconVersion() (uint64, error) {
	l, err := e.lexiconPayload()
	if err != nil {
		return 0, err
	}
	return l.Version, nil
}

// RemoteWorld is a client world fetched from a server with
// SyncLexicon: enough state to mint remote-only Clients that embellish
// exactly like the serving engine's own.
type RemoteWorld struct {
	world   *clientWorld
	version uint64
}

// Version is the server's lexicon version at sync time; pass it to
// CheckLexicon to detect drift before reusing a cached world.
func (rw *RemoteWorld) Version() uint64 { return rw.version }

// NumSearchableTerms reports the size of the synced searchable
// dictionary (the organization's term count).
func (rw *RemoteWorld) NumSearchableTerms() int { return rw.world.org.Terms() }

// NumBuckets reports the synced organization's bucket count.
func (rw *RemoteWorld) NumBuckets() int { return rw.world.org.NumBuckets() }

// SearchableLemmas returns the lemmas of the synced searchable
// dictionary, like Engine.SearchableLemmas — the terms a remote query
// may contain and still be both protected and matched. The slice is
// freshly allocated.
func (rw *RemoteWorld) SearchableLemmas() []string {
	var out []string
	for b := 0; b < rw.world.org.NumBuckets(); b++ {
		for _, t := range rw.world.org.Bucket(b) {
			out = append(out, rw.world.lex.db.Lemma(t))
		}
	}
	return out
}

// NewClient generates a fresh key pair bound to the synced world. The
// client has no local engine: Search/Process are unavailable
// (ErrRemoteOnly), the Remote methods all work. randSource supplies
// cryptographic randomness; nil selects crypto/rand.
func (rw *RemoteWorld) NewClient(randSource io.Reader) (*Client, error) {
	return newWorldClient(rw.world, randSource)
}

// SyncLexicon fetches the server's embellishment world over an open
// connection: bucket organization, synset tables, analyzer settings
// and key parameters. The server must run with
// ServeConfig.AllowLexiconSync; the refusal leaves the connection
// reusable, like the other admin gates. The returned world is
// immutable and safe to share across goroutines (each NewClient mints
// an independent session).
func SyncLexicon(conn io.ReadWriter) (*RemoteWorld, error) {
	if err := wire.WriteLexiconSync(conn, 0); err != nil {
		return nil, fmt.Errorf("embellish: sending lexicon sync: %w", err)
	}
	body, err := readReply(conn, wire.TypeLexicon, "lexicon")
	if err != nil {
		return nil, err
	}
	l, err := wire.DecodeLexicon(body)
	if err != nil {
		return nil, err
	}
	if l.Current {
		// Version 0 asked for the full tables; "current" answers only
		// non-zero version probes.
		return nil, errors.New("embellish: server answered a full sync with a version probe response")
	}
	w, err := buildWorld(l)
	if err != nil {
		return nil, err
	}
	return &RemoteWorld{world: w, version: l.Version}, nil
}

// CheckLexicon asks the server whether the given synced version is
// still current. nil means current; ErrStaleLexicon (possibly wrapped)
// means the server's tables changed and the world must be re-synced;
// other errors are transport or gate failures. version must be
// non-zero (zero is the full-fetch request).
func CheckLexicon(conn io.ReadWriter, version uint64) error {
	if version == 0 {
		return errors.New("embellish: version 0 is the full-fetch request; pass a synced version")
	}
	if err := wire.WriteLexiconSync(conn, version); err != nil {
		return fmt.Errorf("embellish: sending lexicon probe: %w", err)
	}
	body, err := readReply(conn, wire.TypeLexicon, "lexicon probe response")
	if err != nil {
		return err
	}
	l, err := wire.DecodeLexicon(body)
	if err != nil {
		return err
	}
	if !l.Current || l.Version != version {
		return fmt.Errorf("embellish: server answered version probe with version %d payload (probed %d)", l.Version, version)
	}
	return nil
}

// buildWorld reconstructs a clientWorld from a decoded sync payload.
// The two blobs re-validate their own grammars (crc, shape) in the
// persistence codecs; this layer checks cross-consistency — every
// organization term must exist in the lexicon — so a hostile or
// corrupt payload cannot produce a client that embellishes terms the
// lexicon cannot name.
func buildWorld(l wire.Lexicon) (*clientWorld, error) {
	db, err := wordnet.ReadDatabase(bytes.NewReader(l.Lex))
	if err != nil {
		return nil, fmt.Errorf("embellish: lexicon payload: %w", err)
	}
	org, err := bucket.ReadOrganization(bytes.NewReader(l.Org))
	if err != nil {
		return nil, fmt.Errorf("embellish: organization payload: %w", err)
	}
	nt := wordnet.TermID(db.NumTerms())
	for b := 0; b < org.NumBuckets(); b++ {
		for _, t := range org.Bucket(b) {
			if t >= nt {
				return nil, fmt.Errorf("embellish: organization references term %d outside the %d-term lexicon", t, nt)
			}
		}
	}
	if err := (Options{
		BucketSize:  2, // not carried by the payload; satisfy validate
		KeyBits:     l.KeyBits,
		ScoreSpace:  l.ScoreSpace,
		QuantLevels: 255,
	}).validate(); err != nil {
		return nil, fmt.Errorf("embellish: sync payload options: %w", err)
	}
	return &clientWorld{
		lex:        &Lexicon{db: db},
		analyzer:   buildAnalyzer(db, l.Stopwords),
		org:        org,
		keyBits:    l.KeyBits,
		scoreSpace: l.ScoreSpace,
		fetchBits:  l.KeyBits,
	}, nil
}
