package embellish

import (
	"fmt"
	"io"

	"embellish/internal/core"
	"embellish/internal/privacy"
	"embellish/internal/wire"
	"embellish/internal/wordnet"
)

// Per-session privacy-risk auditing: the serving engine plays the
// paper's adversary against its own clients. For every query frame it
// observes on a connection — genuine or decoy-marked — it decomposes
// the term stream into host buckets, scores the posterior-similarity
// risk of Section 6 with the factorized estimator
// (privacy.Auditor.ObservedRisk), and runs the TrackMeNot coherence
// adversary over decoy rounds. The resulting per-session report
// (TypeRiskAudit) tells an operator — and the test battery — how much
// privacy the observed traffic actually bought, measured by the same
// model the offline evaluator uses.

// auditCoherenceCap bounds the term prefix the per-frame coherence
// statistic considers: coherence is quadratic in terms, and embellished
// frames carry BucketSize times the genuine term count.
const auditCoherenceCap = 12

// maxPendingDecoys bounds the decoy coherences buffered per round so a
// client streaming only decoys cannot grow server memory; decoys past
// the cap still count, they just do not enter the adversary's round.
const maxPendingDecoys = 64

// sessionAudit accumulates one connection's observed-risk report: it is
// the NetServer's per-connection state. It lives on the connection's
// serving goroutine, so no locking: the wire protocol is strictly
// request-response per connection.
type sessionAudit struct {
	// aud is built lazily on the first observed frame: each session
	// needs its own semdist.Calculator (not safe for concurrent use),
	// and sessions that never see a query frame should not pay for one.
	aud           *privacy.Auditor
	report        wire.RiskAudit
	pendingDecoys []float64 // coherences of decoys since the last genuine frame
}

// observe folds one decoded query frame into the session report when
// auditing is on. Only frames that decode are observed — the adversary
// scores term streams, and a malformed frame has none.
func (s *NetServer) observe(a *sessionAudit, q *core.Query, decoy bool) {
	if !s.riskAudit {
		return
	}
	if a.aud == nil {
		a.aud = privacy.NewAuditor(s.engine.org, s.engine.lex.db)
	}
	terms := make([]wordnet.TermID, len(q.Entries))
	for i, e := range q.Entries {
		terms[i] = e.Term
	}
	coh := a.aud.Coherence(terms, auditCoherenceCap)
	if decoy {
		a.report.Decoys++
		a.report.CoherenceDecoySumMicros += micros(coh)
		if len(a.pendingDecoys) < maxPendingDecoys {
			a.pendingDecoys = append(a.pendingDecoys, coh)
		}
	} else {
		a.report.Queries++
		a.report.CoherenceGenuineSumMicros += micros(coh)
		if len(a.pendingDecoys) > 0 {
			// One adversary round: the genuine frame against the decoys
			// since the last one. The adversary guesses the most coherent
			// (lowest mean distance) stream as genuine; ties break toward
			// the earlier-arrived decoy, matching trackmenot.Adversary.
			a.report.Rounds++
			hit := true
			for _, d := range a.pendingDecoys {
				if d <= coh {
					hit = false
					break
				}
			}
			if hit {
				a.report.RoundHits++
			}
			a.pendingDecoys = a.pendingDecoys[:0]
		}
	}
	buckets, err := privacy.Decompose(s.engine.org, terms)
	if err == nil {
		var risk float64
		if risk, err = a.aud.ObservedRisk(buckets); err == nil {
			a.report.Audited++
			s.loop.Counters[wire.StatRiskAudited].Add(1)
			m := micros(risk)
			a.report.RiskSumMicros += m
			s.loop.Counters[wire.StatRiskSumMicros].Add(int64(m))
			if m > a.report.MaxRiskMicros {
				a.report.MaxRiskMicros = m
			}
			return
		}
	}
	// Not an embellished frame, or the candidate space exceeded the
	// work cap: counted, never silently dropped.
	a.report.Skipped++
	s.loop.Counters[wire.StatRiskSkipped].Add(1)
}

// micros converts a risk or coherence value to the wire's integer
// micro-units.
func micros(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(v*1e6 + 0.5)
}

// answerRiskAudit serves one TypeRiskAudit request from the
// connection's accumulated session report.
func (s *NetServer) answerRiskAudit(req *netRequest) error {
	return wire.WriteRiskAudit(req.W, req.State.report)
}

// answerLexiconSync serves one TypeLexiconSync request. Version 0
// requests the full tables; the server's own version answers with the
// no-payload "current" form; any other version is refused with the
// typed StaleLexiconRefusal error (the client's organization no longer
// matches and its queries would be malformed).
func (s *NetServer) answerLexiconSync(req *netRequest) error {
	version, err := wire.DecodeLexiconSync(req.Body)
	if err != nil {
		return err
	}
	l, err := s.engine.lexiconPayload()
	if err != nil {
		return err
	}
	switch version {
	case 0:
		return wire.WriteLexicon(req.W, l)
	case l.Version:
		return wire.WriteLexicon(req.W, wire.Lexicon{Version: l.Version, Current: true})
	default:
		return fmt.Errorf("%s: server lexicon version is %d, client synced %d; re-sync",
			wire.StaleLexiconRefusal, l.Version, version)
	}
}

// RiskAuditReport is a decoded per-session privacy audit, the client
// view of the server's TypeRiskAudit answer. Counters are cumulative
// over the connection's lifetime.
type RiskAuditReport struct {
	// Queries and Decoys count the observed genuine- and decoy-marked
	// query frames (batch members included).
	Queries, Decoys int
	// Audited counts frames the risk model scored; Skipped the ones it
	// could not (non-embellished term streams, or candidate spaces over
	// the server's work cap).
	Audited, Skipped int
	// MeanRisk is the mean per-query observed risk across audited
	// frames — the similarity the paper's Section 6 adversary expects
	// between two posterior guesses; MaxRisk the worst single frame.
	// Zero when nothing was audited.
	MeanRisk, MaxRisk float64
	// Rounds and RoundHits report the live TrackMeNot experiment: how
	// many decoy rounds the session produced, and how often the
	// coherence adversary picked the genuine frame out of the round.
	Rounds, RoundHits int
	// MeanGenuineCoherence and MeanDecoyCoherence are the mean
	// per-frame term coherences (mean pairwise semantic distance, lower
	// = more topically coherent) of the two frame classes.
	MeanGenuineCoherence, MeanDecoyCoherence float64
}

// AdversarySuccess is the coherence adversary's live success rate over
// the session's decoy rounds; 0 when no round completed. A value far
// above 1/(decoys-per-round+1) means the decoy cover is statistically
// broken — the paper's argument for bucket embellishment over ghost
// traffic.
func (r RiskAuditReport) AdversarySuccess() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return float64(r.RoundHits) / float64(r.Rounds)
}

// SessionRiskAudit fetches THIS connection's accumulated privacy audit
// from a server running with ServeConfig.RiskAudit. The report covers
// every query frame the server observed on the connection so far, so a
// client can measure — with the server's own adversary model — how
// much privacy its embellishment and decoy streams actually bought.
func SessionRiskAudit(conn io.ReadWriter) (RiskAuditReport, error) {
	if err := wire.WriteRiskAuditRequest(conn); err != nil {
		return RiskAuditReport{}, fmt.Errorf("embellish: sending audit request: %w", err)
	}
	body, err := readReply(conn, wire.TypeRiskAudit, "audit")
	if err != nil {
		return RiskAuditReport{}, err
	}
	a, err := wire.DecodeRiskAudit(body)
	if err != nil {
		return RiskAuditReport{}, err
	}
	r := RiskAuditReport{
		Queries:   int(a.Queries),
		Decoys:    int(a.Decoys),
		Audited:   int(a.Audited),
		Skipped:   int(a.Skipped),
		MaxRisk:   float64(a.MaxRiskMicros) / 1e6,
		Rounds:    int(a.Rounds),
		RoundHits: int(a.RoundHits),
	}
	if a.Audited > 0 {
		r.MeanRisk = float64(a.RiskSumMicros) / 1e6 / float64(a.Audited)
	}
	if a.Queries > 0 {
		r.MeanGenuineCoherence = float64(a.CoherenceGenuineSumMicros) / 1e6 / float64(a.Queries)
	}
	if a.Decoys > 0 {
		r.MeanDecoyCoherence = float64(a.CoherenceDecoySumMicros) / 1e6 / float64(a.Decoys)
	}
	return r, nil
}
