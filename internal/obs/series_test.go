package obs

import "testing"

func fill(s *Series, pts ...Point) {
	for _, p := range pts {
		s.push(p)
	}
}

func TestSeriesRingWrap(t *testing.T) {
	s := newSeries("x", 4)
	for i := int64(1); i <= 6; i++ {
		s.push(Point{AtPs: i * 10, V: float64(i)})
	}
	if s.Len() != 4 || !s.Dropped() {
		t.Fatalf("Len=%d Dropped=%v, want 4/true", s.Len(), s.Dropped())
	}
	for i := 0; i < 4; i++ {
		if got := s.At(i); got.V != float64(i+3) {
			t.Fatalf("At(%d) = %+v, want V=%d", i, got, i+3)
		}
	}
	if last, _ := s.Last(); last.AtPs != 60 || last.V != 6 {
		t.Fatalf("Last = %+v", last)
	}
}

func TestSeriesOperators(t *testing.T) {
	s := newSeries("x", 16)
	// A counter-ish ramp: value at t=100..500 is 0,1,1,4,6.
	fill(s,
		Point{100, 0}, Point{200, 1}, Point{300, 1}, Point{400, 4}, Point{500, 6})

	if v := s.LastValue(); v != 6 {
		t.Fatalf("LastValue = %g", v)
	}
	// Window (200, 500]: points at 300,400,500. Baseline for Delta is the
	// newest point at/before 200 — the one AT 200 (v=1).
	if v := s.Delta(500, 300); v != 5 {
		t.Fatalf("Delta = %g, want 5", v)
	}
	if v := s.MaxOver(500, 300); v != 6 {
		t.Fatalf("MaxOver = %g", v)
	}
	if v := s.FracOver(3, 500, 300); v != 2.0/3 {
		t.Fatalf("FracOver = %g", v)
	}
	if v := s.CountOver(500, 300); v != 3 {
		t.Fatalf("CountOver = %d", v)
	}
	if v := s.StaleForPs(750); v != 250 {
		t.Fatalf("StaleForPs = %d", v)
	}
	// Delta past the ring's reach falls back to the oldest point.
	if v := s.Delta(500, 10_000); v != 6 {
		t.Fatalf("Delta(full) = %g, want 6", v)
	}
}

func TestSeriesEmptyAndNil(t *testing.T) {
	var nilS *Series
	empty := newSeries("e", 4)
	for name, s := range map[string]*Series{"nil": nilS, "empty": empty} {
		if s.Len() != 0 || s.LastValue() != 0 || s.CountOver(100, 50) != 0 {
			t.Fatalf("%s series reported data", name)
		}
		if s.MaxOver(100, 50) != 0 || s.FracOver(1, 100, 50) != 0 {
			t.Fatalf("%s series windowed op non-zero", name)
		}
		if s.StaleForPs(100) != -1 {
			t.Fatalf("%s series StaleForPs != -1", name)
		}
	}
}

func TestStoreFirstSeenOrder(t *testing.T) {
	st := newStore(8)
	st.observe("b", 10, 1)
	st.observe("a", 10, 2)
	st.observe("b", 20, 3)
	var names []string
	st.Each(func(se *Series) { names = append(names, se.Name()) })
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("order = %v, want [b a]", names)
	}
	if st.LastValue("b") != 3 || st.LastValue("a") != 2 || st.LastValue("missing") != 0 {
		t.Fatalf("LastValue wrong: b=%g a=%g", st.LastValue("b"), st.LastValue("a"))
	}
	if st.Len() != 2 || st.Series("b").Len() != 2 {
		t.Fatal("store counts wrong")
	}
}
