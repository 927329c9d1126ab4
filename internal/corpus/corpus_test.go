package corpus

import (
	"bytes"
	"compress/flate"
	"io"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range AllKinds() {
		a := Generate(k, 4096, 7)
		b := Generate(k, 4096, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%v: same seed produced different data", k)
		}
		c := Generate(k, 4096, 8)
		if k != Zeros && bytes.Equal(a, c) {
			t.Errorf("%v: different seeds produced identical data", k)
		}
	}
}

func TestGenerateExactSize(t *testing.T) {
	for _, k := range AllKinds() {
		for _, size := range []int{1, 63, 64, 4096, 16384} {
			if got := len(Generate(k, size, 1)); got != size {
				t.Errorf("%v size %d: got %d bytes", k, size, got)
			}
		}
	}
}

func TestGenerateZeroAndNegativeSize(t *testing.T) {
	if Generate(Text, 0, 1) != nil {
		t.Error("size 0 should return nil")
	}
	if Generate(Text, -5, 1) != nil {
		t.Error("negative size should return nil")
	}
}

// flateRatio measures how well the standard library compresses the data,
// anchoring our compressibility-ordering property to a reference codec.
func flateRatio(t *testing.T, data []byte) float64 {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	return float64(len(data)) / float64(buf.Len())
}

func TestCompressibilityOrdering(t *testing.T) {
	// The kinds are declared from most to least compressible; verify the
	// ordering holds under a reference codec (allowing HTML/Text/JSON to
	// be close, but requiring the extremes to be far apart).
	const n = 16384
	zeros := flateRatio(t, Generate(Zeros, n, 1))
	html := flateRatio(t, Generate(HTML, n, 1))
	random := flateRatio(t, Generate(Random, n, 1))
	if zeros < 50 {
		t.Errorf("zeros ratio = %.1f, want very high", zeros)
	}
	if html < 2 {
		t.Errorf("html ratio = %.1f, want >= 2", html)
	}
	if random > 1.1 {
		t.Errorf("random ratio = %.2f, want ~1 (incompressible)", random)
	}
	if !(zeros > html && html > random) {
		t.Errorf("ordering violated: zeros=%.1f html=%.1f random=%.2f", zeros, html, random)
	}
}

func TestGeneratedDataRoundTripsThroughFlate(t *testing.T) {
	for _, k := range AllKinds() {
		data := Generate(k, 8192, 3)
		var buf bytes.Buffer
		w, _ := flate.NewWriter(&buf, flate.BestSpeed)
		w.Write(data)
		w.Close()
		r := flate.NewReader(&buf)
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("%v: inflate error: %v", k, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("%v: round trip mismatch", k)
		}
	}
}

func TestHTMLLooksLikeMarkup(t *testing.T) {
	data := string(Generate(HTML, 2048, 1))
	if !strings.Contains(data, "<!DOCTYPE html>") {
		t.Error("missing doctype")
	}
	if !strings.Contains(data, "class=") {
		t.Error("missing class attributes")
	}
}

func TestJSONStructure(t *testing.T) {
	data := string(Generate(JSON, 2048, 1))
	if !strings.HasPrefix(data, "[{") {
		t.Errorf("json should start with [{, got %q", data[:8])
	}
	if !strings.Contains(data, `"timestamp":`) {
		t.Error("missing expected key")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Zeros: "zeros", HTML: "html", Text: "text", JSON: "json", Random: "random"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("unknown kind should include numeric value")
	}
}

func TestGenerateUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown kind")
		}
	}()
	Generate(Kind(42), 16, 1)
}
