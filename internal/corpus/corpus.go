// Package corpus generates synthetic data corpora with controlled
// redundancy structure. The paper's artifact compresses publicly
// available corpora and Nginx HTTP responses; this package substitutes
// deterministic generators whose entropy and match structure span the
// same regimes (highly templated HTML, natural-ish text, structured
// JSON, incompressible random bytes, and trivially compressible zeros),
// so compression-ratio orderings and the Deflate DSA's hash-bank
// behaviour are exercised the same way.
//
// All generators are seeded and deterministic, which keeps every
// benchmark and figure in the reproduction repeatable bit-for-bit.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"
)

// Kind selects a corpus generator.
type Kind int

// Supported corpus kinds, ordered roughly from most to least compressible.
const (
	Zeros  Kind = iota // all zero bytes: best case for LZ77
	HTML               // templated markup, heavy long-range repetition
	Text               // word-sampled prose, moderate repetition
	JSON               // structured records with repeated keys
	Random             // uniform random bytes: incompressible
)

// String returns the corpus kind name.
func (k Kind) String() string {
	switch k {
	case Zeros:
		return "zeros"
	case HTML:
		return "html"
	case Text:
		return "text"
	case JSON:
		return "json"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists every corpus kind, in compressibility order.
func AllKinds() []Kind { return []Kind{Zeros, HTML, Text, JSON, Random} }

// Generate produces size bytes of the requested corpus kind using the
// given seed. The same (kind, size, seed) triple always yields the same
// bytes.
func Generate(kind Kind, size int, seed int64) []byte {
	if size <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case Zeros:
		return make([]byte, size)
	case HTML:
		return genHTML(rng, size)
	case Text:
		return genText(rng, size)
	case JSON:
		return genJSON(rng, size)
	case Random:
		b := make([]byte, size)
		rng.Read(b)
		return b
	default:
		panic(fmt.Sprintf("corpus: unknown kind %d", int(kind)))
	}
}

// wordList is a small vocabulary with a Zipf-ish sampling in genText; a
// compact vocabulary yields the medium-distance LZ matches typical of
// natural text.
var wordList = []string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "I",
	"memory", "network", "protocol", "server", "cache", "bandwidth",
	"request", "response", "channel", "buffer", "packet", "stream",
	"latency", "throughput", "encryption", "compression", "offload",
	"accelerator", "datacenter", "connection", "processing", "hardware",
}

func genText(rng *rand.Rand, size int) []byte {
	var b strings.Builder
	b.Grow(size + 16)
	sentenceLen := 0
	for b.Len() < size {
		// Zipf-like: favor early words quadratically.
		idx := rng.Intn(len(wordList))
		if rng.Intn(2) == 0 {
			idx = rng.Intn(idx + 1)
		}
		w := wordList[idx]
		if sentenceLen == 0 {
			w = strings.ToUpper(w[:1]) + w[1:]
		}
		b.WriteString(w)
		sentenceLen++
		if sentenceLen > 6+rng.Intn(10) {
			b.WriteString(". ")
			sentenceLen = 0
		} else {
			b.WriteByte(' ')
		}
	}
	return []byte(b.String())[:size]
}

var htmlTags = []string{"div", "span", "p", "li", "td", "a", "h2", "section"}
var htmlClasses = []string{"nav-item", "content", "header", "footer", "row", "col-md-4", "btn btn-primary", "card"}

func genHTML(rng *rand.Rand, size int) []byte {
	var b strings.Builder
	b.Grow(size + 64)
	b.WriteString("<!DOCTYPE html>\n<html>\n<head><title>Synthetic page</title></head>\n<body>\n")
	for b.Len() < size {
		tag := htmlTags[rng.Intn(len(htmlTags))]
		class := htmlClasses[rng.Intn(len(htmlClasses))]
		fmt.Fprintf(&b, "<%s class=\"%s\" id=\"e%d\">", tag, class, rng.Intn(1000))
		// Inline a short run of text content.
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			b.WriteString(wordList[rng.Intn(len(wordList))])
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "</%s>\n", tag)
	}
	return []byte(b.String())[:size]
}

var jsonKeys = []string{"id", "timestamp", "user_id", "status", "payload", "region", "latency_us", "bytes"}

func genJSON(rng *rand.Rand, size int) []byte {
	var b strings.Builder
	b.Grow(size + 64)
	b.WriteString("[")
	first := true
	for b.Len() < size {
		if !first {
			b.WriteString(",")
		}
		first = false
		b.WriteString("{")
		for i, k := range jsonKeys {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%q:%d", k, rng.Intn(100000))
		}
		b.WriteString("}")
	}
	b.WriteString("]")
	return []byte(b.String())[:size]
}
