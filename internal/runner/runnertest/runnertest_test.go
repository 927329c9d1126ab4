package runnertest

import (
	"runtime"
	"strings"
	"testing"
)

// fakeTB records SameBytes' verdict without failing the real test:
// Fatalf stops the calling goroutine as testing.T does, and cleanups run
// when the caller says so.
type fakeTB struct {
	testing.TB
	failure  string
	cleanups []func()
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }

func (f *fakeTB) Fatalf(format string, args ...any) {
	f.failure = format
	runtime.Goexit()
}

// sameBytes runs SameBytes against a fakeTB on its own goroutine (so
// Fatalf can stop it), then runs the cleanups as the test framework
// would.
func sameBytes(run func(workers int) []byte) *fakeTB {
	f := &fakeTB{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		SameBytes(f, run)
	}()
	<-done
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
	return f
}

func TestSameBytes(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)

	var calls []string
	ok := sameBytes(func(workers int) []byte {
		calls = append(calls, strings.Repeat("w", workers)+"/"+strings.Repeat("p", runtime.GOMAXPROCS(0)))
		return []byte("same")
	})
	if ok.failure != "" {
		t.Fatalf("deterministic run failed the gate: %s", ok.failure)
	}
	if want := "w/ppp wwww/ppp /pp"; strings.Join(calls, " ") != want {
		t.Fatalf("calls = %q, want %q (serial, 4 workers, 0 workers at GOMAXPROCS=2)", strings.Join(calls, " "), want)
	}

	bad := sameBytes(func(int) []byte { return []byte{byte(runtime.GOMAXPROCS(0))} })
	if !strings.HasPrefix(bad.failure, "GOMAXPROCS=2 diverged") {
		t.Fatalf("a GOMAXPROCS-dependent run passed the gate (failure %q)", bad.failure)
	}
	if got := runtime.GOMAXPROCS(0); got != 3 {
		t.Fatalf("GOMAXPROCS = %d after a failed gate, want 3 restored", got)
	}

	if f := sameBytes(func(w int) []byte { return []byte{byte(w)} }); !strings.HasPrefix(f.failure, "workers=4 diverged") {
		t.Fatalf("a worker-dependent run passed the gate (failure %q)", f.failure)
	}
}
