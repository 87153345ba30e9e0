package embellish

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"embellish/internal/trackmenot"
	"embellish/internal/wire"
	"embellish/internal/wordnet"
)

// Decoy streaming: TrackMeNot-style ghost traffic layered ON TOP of
// bucket embellishment. Each genuine query travels inside a small
// burst of ghost queries — random searchable-term combinations,
// embellished exactly like genuine queries and framed as
// wire.TypeDecoyQuery (body byte-identical to TypeQuery, so captured
// frames are indistinguishable; the type byte exists for honest
// accounting and ground truth in experiments). The paper's Section 2.1
// criticism — random ghosts are statistically separable by term
// coherence — is exactly what the server's per-session risk audit
// measures live, which is the point: the decoy stream and the audit
// together reproduce the paper's ghost-cover experiment on a real
// connection.

// DecoyStreamConfig tunes a DecoyStream.
type DecoyStreamConfig struct {
	// GhostRate is the number of decoy queries sent per genuine query
	// (the per-session rate knob). 0 selects the TrackMeNot-style
	// default of 4; negative disables cover traffic (the stream then
	// behaves exactly like plain SearchRemote).
	GhostRate int
	// Seed fixes the ghost term choice and the genuine query's position
	// within each burst, for reproducible experiments.
	Seed int64
}

// DecoyStreamStats counts a stream's traffic.
type DecoyStreamStats struct {
	// Genuine counts genuine queries sent; Decoys the decoy frames
	// sent; Skipped the decoys dropped without being sent (context
	// cancelled mid-burst) or refused by the server (overload or
	// deadline sheds — genuine queries surface those errors instead).
	Genuine, Decoys, Skipped int64
}

// DecoyStream schedules decoy cover traffic around a client's remote
// queries on a live connection. Not safe for concurrent use: a stream
// belongs to one connection's request-response loop, like the Client
// it wraps.
type DecoyStream struct {
	c    *Client
	gen  *trackmenot.Generator
	rate int

	genuine atomic.Int64
	decoys  atomic.Int64
	skipped atomic.Int64
}

// NewDecoyStream builds a decoy scheduler over the client's searchable
// dictionary (every term of every bucket is ghost vocabulary — the
// ghosts must be embellishable, so they come from the organization).
func (c *Client) NewDecoyStream(cfg DecoyStreamConfig) (*DecoyStream, error) {
	org := c.world.org
	vocab := make([]wordnet.TermID, 0, org.Terms())
	for b := 0; b < org.NumBuckets(); b++ {
		vocab = append(vocab, org.Bucket(b)...)
	}
	gen, err := trackmenot.NewGenerator(vocab, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("embellish: decoy stream: %w", err)
	}
	rate := cfg.GhostRate
	if rate == 0 {
		rate = gen.GhostRate // the TrackMeNot-style default
	}
	if rate < 0 {
		rate = 0
	}
	gen.GhostRate = rate
	return &DecoyStream{c: c, gen: gen, rate: rate}, nil
}

// GhostRate reports the stream's decoys-per-genuine-query rate.
func (d *DecoyStream) GhostRate() int { return d.rate }

// SetGhostRate changes the decoys-per-genuine-query rate for
// subsequent searches; negative values clamp to 0 (no cover traffic).
func (d *DecoyStream) SetGhostRate(rate int) {
	if rate < 0 {
		rate = 0
	}
	d.rate = rate
	d.gen.GhostRate = rate
}

// Stats returns a snapshot of the stream's traffic counters.
func (d *DecoyStream) Stats() DecoyStreamStats {
	return DecoyStreamStats{
		Genuine: d.genuine.Load(),
		Decoys:  d.decoys.Load(),
		Skipped: d.skipped.Load(),
	}
}

// SearchRemote runs one private query against a remote engine inside a
// burst of GhostRate decoy queries: the burst order is random (seeded),
// every frame is embellished with the same client key, and the genuine
// query's results are returned. Decoy responses are read and discarded;
// a decoy refused by the server (overload, deadline) is counted skipped
// and the burst continues — cover traffic must never fail a real
// search. The context is checked between frames: once it expires,
// remaining decoys are skipped, and if the genuine query was not yet
// sent the search fails with the context's error.
func (d *DecoyStream) SearchRemote(ctx context.Context, conn io.ReadWriter, query string, k int) ([]Result, error) {
	genuine, skippedWords, err := d.c.genuineTerms(query)
	if err != nil {
		return nil, err
	}
	batch, genuineAt := d.gen.Stream(genuine)
	var results []Result
	for i, terms := range batch {
		isGenuine := i == genuineAt
		if err := ctx.Err(); err != nil {
			if isGenuine || i < genuineAt {
				// The genuine query has not gone out: skip its remaining
				// cover too and fail the search.
				d.skipped.Add(int64(len(batch) - i))
				return nil, err
			}
			d.skipped.Add(int64(len(batch) - i))
			return results, nil
		}
		inner, skippedIDs, err := d.c.inner.Embellish(terms)
		if err != nil {
			if isGenuine {
				return nil, err
			}
			d.skipped.Add(1)
			continue
		}
		if isGenuine && len(skippedIDs) > 0 && len(genuine) == len(skippedIDs) {
			return nil, fmt.Errorf("embellish: no query term is in the searchable dictionary (skipped: %v)", skippedWords)
		}
		writeErr := error(nil)
		if isGenuine {
			writeErr = wire.WriteQuery(conn, inner)
		} else {
			writeErr = wire.WriteQueryDecoy(conn, inner)
		}
		if writeErr != nil {
			return nil, fmt.Errorf("embellish: sending query: %w", writeErr)
		}
		body, err := readReply(conn, wire.TypeResponse, "response")
		if err != nil {
			// A shed or refused decoy is skipped cover, not a failure —
			// but only for the transient refusals; a protocol error on a
			// frame we built means the session is broken.
			if !isGenuine && transientRefusal(err) {
				d.skipped.Add(1)
				continue
			}
			return nil, err
		}
		if isGenuine {
			cands, _, err := wire.DecodeResponse(body)
			if err != nil {
				return nil, err
			}
			results, err = d.c.decodeCandidates(cands, k)
			if err != nil {
				return nil, err
			}
			d.genuine.Add(1)
		} else {
			d.decoys.Add(1)
		}
	}
	return results, nil
}

// genuineTerms runs the analyzer half of Embellish: the query's
// searchable term ids, plus the words that fell outside the
// dictionary. The decoy scheduler needs the terms BEFORE
// embellishment — ghost queries must match the genuine query's term
// count, not its embellished frame size.
func (c *Client) genuineTerms(query string) ([]wordnet.TermID, []string, error) {
	tokens := c.world.analyzer.Analyze(query)
	if len(tokens) == 0 {
		return nil, nil, errors.New("embellish: query has no indexable terms")
	}
	var genuine []wordnet.TermID
	var skipped []string
	for _, tok := range tokens {
		t, ok := c.world.lex.db.Lookup(tok)
		if !ok {
			skipped = append(skipped, tok)
			continue
		}
		genuine = append(genuine, t)
	}
	if len(genuine) == 0 {
		return nil, nil, fmt.Errorf("embellish: no query term is in the searchable dictionary (skipped: %v)", skipped)
	}
	return genuine, skipped, nil
}

// SendGhosts emits n decoy frames on the connection without a genuine
// query — idle-time cover traffic. Exposed for the load harness and
// tests; respects the context between frames.
func (d *DecoyStream) SendGhosts(ctx context.Context, conn io.ReadWriter, n, termsPer int) error {
	if termsPer < 1 {
		termsPer = 2
	}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			d.skipped.Add(int64(n - i))
			return err
		}
		inner, _, err := d.c.inner.Embellish(d.gen.Ghost(termsPer))
		if err != nil {
			d.skipped.Add(1)
			continue
		}
		if err := wire.WriteQueryDecoy(conn, inner); err != nil {
			return fmt.Errorf("embellish: sending decoy: %w", err)
		}
		if _, err := readReply(conn, wire.TypeResponse, "decoy response"); err != nil {
			if transientRefusal(err) {
				d.skipped.Add(1)
				continue
			}
			return err
		}
		d.decoys.Add(1)
	}
	return nil
}

// transientRefusal reports whether a decoy's refusal was a shed or a
// deadline: skipped cover, not a broken session.
func transientRefusal(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrRemoteDeadline)
}
