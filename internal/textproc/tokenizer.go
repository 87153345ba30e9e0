// Package textproc supplies the text-analysis substrate that the paper
// obtains from Lucene (Section 5.2): tokenization, stopword removal (the
// paper's configuration removes stopwords but does not stem; a Porter
// stemmer is nonetheless provided as an option), and greedy longest-match
// recognition of multi-word dictionary terms such as 'abu sayyaf' or
// 'residual nitrogen time', which WordNet treats as single lemmas.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lowercases the input and splits it into maximal runs of
// letters, digits and internal apostrophes/hyphens ("fool's gold" yields
// the tokens "fool's" and "gold"; "yellow-breasted" stays one token).
// Invalid UTF-8 separates tokens like any other non-letter.
//
// A token that is already lowercase is a substring of text, so it keeps
// text alive; callers that retain tokens past the text clone them.
func Tokenize(text string) []string {
	var tokens []string
	// The current token is text[start:end]: start is its first byte (-1
	// between tokens) and end the byte after its last letter or digit, so
	// trailing apostrophes and hyphens fall outside it.
	start, end := -1, 0
	lower := true // the current token needs no lowercasing
	for i := 0; i < len(text); {
		c := text[i]
		size := 1
		var word, upper bool // a letter or digit; one ToLower changes
		if c < utf8.RuneSelf {
			upper = 'A' <= c && c <= 'Z'
			word = upper || 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(text[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
			upper = word && unicode.ToLower(r) != r
		}
		switch {
		case word:
			if start < 0 {
				start, lower = i, true
			}
			lower = lower && !upper
			end = i + size
		case start >= 0 && (c == '\'' || c == '-'):
			// Inside the token only if a letter or digit follows.
		case start >= 0:
			tokens = appendToken(tokens, text[start:end], lower)
			start = -1
		}
		i += size
	}
	if start >= 0 {
		tokens = appendToken(tokens, text[start:end], lower)
	}
	return tokens
}

// appendToken appends tok, lowercased unless lower says it already is.
func appendToken(tokens []string, tok string, lower bool) []string {
	if !lower {
		tok = strings.Map(unicode.ToLower, tok)
	}
	return append(tokens, tok)
}

// Analyzer is a configurable pipeline: tokenize, drop stopwords,
// optionally stem, and optionally fuse multi-word dictionary terms.
type Analyzer struct {
	// Stopwords maps each stopword to true. Nil disables removal.
	Stopwords map[string]bool
	// Stem applies Porter stemming when true. The paper's setup does not
	// stem ("performs stopword removal but not stemming").
	Stem bool
	// Matcher, when non-nil, fuses runs of tokens that form a known
	// multi-word dictionary term into a single token with spaces.
	Matcher *DictionaryMatcher
}

// NewAnalyzer returns the paper's configuration: standard English
// stopwords, no stemming, no compound matching.
func NewAnalyzer() *Analyzer {
	return &Analyzer{Stopwords: DefaultStopwords()}
}

// Analyze runs the pipeline over raw text.
func (a *Analyzer) Analyze(text string) []string {
	return a.Process(Tokenize(text))
}

// Process runs the pipeline over pre-split tokens. It leaves tokens
// unchanged and returns a new slice.
func (a *Analyzer) Process(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	if a.Matcher != nil {
		// Fusing writes into out's array; the filter below then compacts
		// that array in place, never overtaking its own reads.
		tokens = a.Matcher.Fuse(out, tokens)
	}
	for _, t := range tokens {
		if a.Stopwords != nil && a.Stopwords[t] {
			continue
		}
		if a.Stem && !strings.Contains(t, " ") {
			t = PorterStem(t)
		}
		out = append(out, t)
	}
	return out
}

// DictionaryMatcher recognizes multi-word dictionary terms in a token
// stream by greedy longest match.
type DictionaryMatcher struct {
	// compounds maps the first word of every known compound to the list
	// of full compounds starting with it, longest first.
	compounds map[string][]compound
}

// compound is one multi-word lemma: its words and their space-joined
// form, the token Fuse emits for it.
type compound struct {
	words []string
	lemma string
}

// NewDictionaryMatcher indexes the multi-word lemmas among terms.
func NewDictionaryMatcher(terms []string) *DictionaryMatcher {
	m := &DictionaryMatcher{compounds: make(map[string][]compound)}
	for _, t := range terms {
		if !strings.Contains(t, " ") {
			continue
		}
		words := strings.Fields(t)
		m.compounds[words[0]] = append(m.compounds[words[0]], compound{words, strings.Join(words, " ")})
	}
	// Longest first, so greedy matching prefers 'family amaranthaceae'
	// over a hypothetical shorter compound with the same head.
	for k := range m.compounds {
		list := m.compounds[k]
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && len(list[j].words) > len(list[j-1].words); j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
	}
	return m
}

// Fuse appends tokens to dst, replacing maximal runs of tokens matching a
// known compound with the single space-joined lemma, and returns the
// extended slice.
func (m *DictionaryMatcher) Fuse(dst, tokens []string) []string {
	for i := 0; i < len(tokens); {
		matched := false
		for _, c := range m.compounds[tokens[i]] {
			if i+len(c.words) > len(tokens) {
				continue
			}
			ok := true
			for j, w := range c.words {
				if tokens[i+j] != w {
					ok = false
					break
				}
			}
			if ok {
				dst = append(dst, c.lemma)
				i += len(c.words)
				matched = true
				break
			}
		}
		if !matched {
			dst = append(dst, tokens[i])
			i++
		}
	}
	return dst
}
