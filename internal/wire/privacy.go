package wire

import (
	"errors"
	"fmt"
	"io"

	"embellish/internal/core"
	"embellish/internal/vbyte"
)

// Privacy-layer messages put the paper's first privacy stage on the
// wire: served embellishment state (the bucket organization and synset
// tables a remote client needs to run Algorithm 3 locally without the
// engine file), decoy-marked cover traffic, and the per-session risk
// audit a server computes while playing the Section 3.1 adversary.
//
// TypeLexiconSync: vbyte version — the client's current lexicon
// version, 0 for an unconditional full fetch. A server answers version
// 0 (or its own version) with TypeLexicon; any OTHER non-zero version
// is answered with a StaleLexiconRefusal-prefixed wire error, so a
// client holding outdated buckets fails loudly instead of embellishing
// against the wrong organization.
// TypeLexicon: vbyte version | flag byte (0 = "already current", no
// payload; 1 = full payload follows) | vbyte scoreSpace | vbyte
// keyBits | stopwords byte | vbyte org-bytes length | EBKT
// organization | vbyte lexicon-bytes length | ELEX database. The two blobs reuse the
// persistence codecs (internal/bucket, internal/wordnet), which
// re-validate their own invariants and crc on decode.
// TypeDecoyQuery: body identical to TypeQuery. The type byte marks the
// query as client-generated cover traffic — for accounting (TypeStats
// decoy counters, capacity planning) and as the ground truth the risk
// audit's ghost-adversary evaluation needs. Servers process it exactly
// like TypeQuery; clients that want the cover unmarked send plain
// TypeQuery frames instead (see docs/THREAT_MODEL.md).
// TypeRiskAudit: sent with an EMPTY body it requests THIS connection's
// session audit; the response is the same type carrying a positional
// vbyte field list like TypeStats (append-only schema).
const (
	TypeLexiconSync = 18
	TypeLexicon     = 19
	TypeDecoyQuery  = 20
	TypeRiskAudit   = 21
)

// StaleLexiconRefusal prefixes the typed error a server sends when a
// client reports a lexicon version that is neither zero nor the
// server's own: the client's bucket organization is out of date and
// every query embellished with it would be malformed. Like the other
// refusal prefixes it is matched by clients and FROZEN; the text after
// it may carry detail (the server's current version) and may change.
const StaleLexiconRefusal = "client lexicon is stale"

// maxLexiconSection bounds each serialized blob in a TypeLexicon
// payload. Both must also fit one frame together, but the per-section
// cap rejects a forged length before any allocation.
const maxLexiconSection = MaxFrame - (1 << 10)

// maxRiskFields caps the field count a TypeRiskAudit peer may claim,
// mirroring maxStatsFields.
const maxRiskFields = 64

// WriteLexiconSync frames a client's lexicon-sync request. version 0
// asks for the full tables; a non-zero version asks the server to
// confirm it is still current.
func WriteLexiconSync(w io.Writer, version uint64) error {
	return writeFrame(w, vbyte.Append(newFrame(TypeLexiconSync, vbyte.MaxLen), version))
}

// DecodeLexiconSync parses a TypeLexiconSync body.
func DecodeLexiconSync(body []byte) (uint64, error) {
	v, used, err := vbyte.Decode(body)
	if err != nil {
		return 0, fmt.Errorf("wire: lexicon sync version: %w", err)
	}
	if len(body) != used {
		return 0, errors.New("wire: trailing bytes after lexicon sync")
	}
	return v, nil
}

// Lexicon is the wire form of the served embellishment state.
type Lexicon struct {
	// Version identifies the server's organization+lexicon content; a
	// client re-syncs (or fails loudly) when it changes.
	Version uint64
	// Current is set on the no-payload "you are up to date" answer.
	Current bool
	// ScoreSpace is the engine's Benaloh plaintext-space exponent k
	// (r = 3^k) — the client must generate keys with the same score
	// space or decrypted scores wrap differently than the engine
	// accumulated them. KeyBits is the engine's modulus size, the
	// default for client key generation.
	ScoreSpace, KeyBits int
	// Stopwords reports the engine analyzer's stopword setting; the
	// client must analyze queries identically or its genuine term set
	// diverges from a local engine's.
	Stopwords bool
	// Org is the EBKT-serialized bucket organization; Lex the
	// ELEX-serialized synset database. Both empty when Current.
	Org, Lex []byte
}

// WriteLexicon frames and writes a TypeLexicon response.
func WriteLexicon(w io.Writer, l Lexicon) error {
	body := vbyte.Append(newFrame(TypeLexicon, 0), l.Version)
	if l.Current {
		body = append(body, 0)
		return writeFrame(w, body)
	}
	if len(l.Org) == 0 || len(l.Lex) == 0 {
		return errors.New("wire: lexicon payload missing a section")
	}
	if len(l.Org) > maxLexiconSection || len(l.Lex) > maxLexiconSection {
		return fmt.Errorf("wire: lexicon section exceeds %d bytes", maxLexiconSection)
	}
	body = append(body, 1)
	body = vbyte.Append(body, uint64(l.ScoreSpace))
	body = vbyte.Append(body, uint64(l.KeyBits))
	if l.Stopwords {
		body = append(body, 1)
	} else {
		body = append(body, 0)
	}
	body = vbyte.Append(body, uint64(len(l.Org)))
	body = append(body, l.Org...)
	body = vbyte.Append(body, uint64(len(l.Lex)))
	body = append(body, l.Lex...)
	return writeFrame(w, body)
}

// DecodeLexicon parses a TypeLexicon body. The Org and Lex blobs are
// NOT parsed here — bucket.ReadOrganization and wordnet.ReadDatabase
// own those grammars (with their own caps and crc checks); this
// decoder validates only the envelope.
func DecodeLexicon(body []byte) (Lexicon, error) {
	var l Lexicon
	var used int
	var err error
	l.Version, used, err = vbyte.Decode(body)
	if err != nil {
		return l, fmt.Errorf("wire: lexicon version: %w", err)
	}
	body = body[used:]
	if len(body) < 1 || body[0] > 1 {
		return l, errors.New("wire: lexicon payload flag")
	}
	full := body[0] == 1
	body = body[1:]
	if !full {
		if len(body) != 0 {
			return l, errors.New("wire: trailing bytes after current lexicon")
		}
		l.Current = true
		return l, nil
	}
	ss, used, err := vbyte.Decode(body)
	// ScoreSpace is a small exponent (Options.validate requires >= 1;
	// r = 3^k must fit big-int practice) — a huge claim is forged.
	if err != nil || ss == 0 || ss > 1<<16 {
		return l, fmt.Errorf("wire: lexicon score space: %w", orRange(err))
	}
	l.ScoreSpace = int(ss)
	body = body[used:]
	kb, used, err := vbyte.Decode(body)
	// KeyBits shares the wire ceiling PIR moduli use: 8192 bits.
	if err != nil || kb < 64 || kb > 8192 {
		return l, fmt.Errorf("wire: lexicon key bits: %w", orRange(err))
	}
	l.KeyBits = int(kb)
	body = body[used:]
	if len(body) < 1 || body[0] > 1 {
		return l, errors.New("wire: lexicon stopwords flag")
	}
	l.Stopwords = body[0] == 1
	body = body[1:]
	for _, sec := range []struct {
		name string
		dst  *[]byte
	}{{"organization", &l.Org}, {"lexicon", &l.Lex}} {
		n, used, err := vbyte.Decode(body)
		if err != nil || n == 0 || n > maxLexiconSection || n > uint64(len(body[used:])) {
			return l, fmt.Errorf("wire: %s section length: %w", sec.name, orRange(err))
		}
		body = body[used:]
		*sec.dst = body[:n]
		body = body[n:]
	}
	if len(body) != 0 {
		return l, errors.New("wire: trailing bytes after lexicon")
	}
	return l, nil
}

// WriteQueryDecoy frames an embellished query as decoy-marked cover
// traffic. The body layout is byte-identical to WriteQuery — only the
// type byte differs — so servers answer it through the same path and
// the response is indistinguishable from a genuine query's.
func WriteQueryDecoy(w io.Writer, q *core.Query) error {
	return writeQueryTyped(w, TypeDecoyQuery, q)
}

// RiskAudit is the wire form of one connection's session audit: what
// the server, playing the Section 3.1 adversary, could infer from the
// query stream it observed. Fields are encoded positionally as vbytes
// in declaration order — APPEND-ONLY, like Stats. Risk values are
// fixed-point micro-units (value * 1e6, rounded).
type RiskAudit struct {
	// Queries counts genuine-marked query frames observed on this
	// session (batch members included); Decoys the decoy-marked ones.
	Queries, Decoys uint64
	// Audited counts queries the risk model scored; Skipped the ones it
	// could not (candidate space over the work cap, or a term stream
	// that does not decompose into whole buckets — i.e. not an
	// embellished query).
	Audited, Skipped uint64
	// RiskSumMicros accumulates the adversary's expected similarity
	// between two posterior draws for each audited query (micro-units);
	// MaxRiskMicros is the worst single query. RiskSumMicros/Audited is
	// the session's mean per-query risk.
	RiskSumMicros, MaxRiskMicros uint64
	// Rounds counts decoy rounds (one or more decoy-marked frames
	// followed by a genuine frame); RoundHits how often the coherence
	// adversary picked the genuine query out of the round — the
	// TrackMeNot success-rate experiment run live on the wire.
	Rounds, RoundHits uint64
	// CoherenceGenuineSumMicros and CoherenceDecoySumMicros accumulate
	// the observed per-frame term coherence (mean pairwise semantic
	// distance over a capped term prefix) for genuine and decoy frames —
	// the statistical handle the paper says breaks ghost cover.
	CoherenceGenuineSumMicros, CoherenceDecoySumMicros uint64
}

// fields returns the positional encoding order. Append-only.
func (a *RiskAudit) fields() []*uint64 {
	return []*uint64{
		&a.Queries, &a.Decoys,
		&a.Audited, &a.Skipped,
		&a.RiskSumMicros, &a.MaxRiskMicros,
		&a.Rounds, &a.RoundHits,
		&a.CoherenceGenuineSumMicros, &a.CoherenceDecoySumMicros,
	}
}

// WriteRiskAuditRequest frames the client's empty audit request.
func WriteRiskAuditRequest(w io.Writer) error {
	return writeFrame(w, newFrame(TypeRiskAudit, 0))
}

// WriteRiskAudit frames and writes the server's session-audit response.
func WriteRiskAudit(w io.Writer, a RiskAudit) error {
	fs := a.fields()
	body := vbyte.Append(newFrame(TypeRiskAudit, (len(fs)+1)*vbyte.MaxLen), uint64(len(fs)))
	for _, f := range fs {
		body = vbyte.Append(body, *f)
	}
	return writeFrame(w, body)
}

// DecodeRiskAudit parses a non-empty TypeRiskAudit body. Like
// DecodeStats it tolerates longer field lists (a newer server) and
// shorter ones (an older server), bounding the claimed count before
// any decode work.
func DecodeRiskAudit(body []byte) (RiskAudit, error) {
	var a RiskAudit
	n, used, err := vbyte.Decode(body)
	if err != nil || n == 0 || n > maxRiskFields {
		return a, fmt.Errorf("wire: risk audit field count: %w", orRange(err))
	}
	body = body[used:]
	fs := a.fields()
	for i := 0; i < int(n); i++ {
		v, used, err := vbyte.Decode(body)
		if err != nil {
			return RiskAudit{}, fmt.Errorf("wire: risk audit field %d: %w", i, err)
		}
		body = body[used:]
		if i < len(fs) {
			*fs[i] = v
		}
	}
	if len(body) != 0 {
		return RiskAudit{}, errors.New("wire: trailing bytes after risk audit")
	}
	return a, nil
}
