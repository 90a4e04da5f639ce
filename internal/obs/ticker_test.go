package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer collects ticker output across goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestFmtCount(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want string
	}{
		{7, "7"}, {999, "999"}, {1_500, "1.5k"}, {3_000_000, "3.0M"}, {2_500_000_000, "2.5G"},
	} {
		if got := fmtCount(tc.n); got != tc.want {
			t.Errorf("fmtCount(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestTickerLineShapes(t *testing.T) {
	rt := NewReqTrace("cli", 1, 0)
	if got := tickerLine(rt); !strings.Contains(got, "0 runs done") {
		t.Errorf("idle line %q", got)
	}

	rt.BeginRun("database PC", 2_000_000)
	var last Counters
	rt.Publish(Counters{500_000, 200_000, 1000, 2000, 500}, &last)
	one := tickerLine(rt)
	for _, want := range []string{"database PC", "500.0k/2.0M", "(25%)", "insts/s", "MLP 2.50"} {
		if !strings.Contains(one, want) {
			t.Errorf("single-run line missing %q: %s", want, one)
		}
	}

	rt.BeginRun("tpcw PC", 1_000_000)
	multi := tickerLine(rt)
	if !strings.Contains(multi, "2 active, 0 done, 500.0k insts") {
		t.Errorf("multi-run line %q", multi)
	}

	rt.EndRun()
	rt.EndRun()
	if got := tickerLine(rt); !strings.Contains(got, "2 runs done, 500.0k insts") {
		t.Errorf("finished line %q", got)
	}
}

func TestStartTickerWritesAndStops(t *testing.T) {
	rt := NewReqTrace("cli", 1, 0)
	rt.BeginRun("database PC", 1_000_000)
	var last Counters
	rt.Publish(Counters{100_000, 50_000, 100, 300, 100}, &last)

	var buf lockedBuffer
	stop := StartTicker(&buf, rt, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(buf.String(), "database PC") {
		if time.Now().After(deadline) {
			t.Fatal("ticker never rendered the active run")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	rt.EndRun()

	if !strings.Contains(buf.String(), "\r") {
		t.Error("ticker should rewrite in place with carriage returns")
	}
}

func TestStartTickerDisabled(t *testing.T) {
	var buf lockedBuffer
	StartTicker(&buf, nil, time.Millisecond)()
	StartTicker(&buf, NewReqTrace("cli", 1, 0), 0)()
	time.Sleep(10 * time.Millisecond)
	if buf.String() != "" {
		t.Errorf("disabled ticker wrote %q", buf.String())
	}
}
