package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// fmtCount renders an instruction count compactly (1234 -> "1.2k",
// 3_000_000 -> "3.0M") for the one-line ticker.
func fmtCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// tickerLine renders the trace's live state as one status line; the
// rate is the trace's overall insts/s since it began.
func tickerLine(t *ReqTrace) string {
	s := t.Live()
	active, finished := t.live.active(), t.live.finished.Load()
	switch active {
	case 0:
		return fmt.Sprintf("progress: %d runs done, %s insts", finished, fmtCount(s.Insts))
	case 1:
		pct := ""
		if s.Total > 0 {
			pct = fmt.Sprintf(" (%.0f%%)", 100*float64(s.Insts)/float64(s.Total))
		}
		return fmt.Sprintf("progress: %s  %s/%s insts%s  %s insts/s  MLP %.2f",
			s.Label, fmtCount(s.Insts), fmtCount(s.Total), pct, fmtCount(int64(s.InstsPerSec)), s.MLP)
	}
	return fmt.Sprintf("progress: %d active, %d done, %s insts, %s insts/s",
		active, finished, fmtCount(s.Insts), fmtCount(int64(s.InstsPerSec)))
}

// StartTicker launches a goroutine that rewrites one status line on w
// (conventionally stderr) every interval from the live state of the
// runs under t — the -progress flag on the CLIs. The returned stop
// function (never nil) halts the ticker and blanks the line; it is
// safe to call once. A nil trace or non-positive interval returns a
// no-op stop.
func StartTicker(w io.Writer, t *ReqTrace, every time.Duration) func() {
	if t == nil || every <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		width := 0
		for {
			select {
			case <-done:
				if width > 0 {
					// Blank the status line so the next print starts clean.
					fmt.Fprintf(w, "\r%s\r", strings.Repeat(" ", width))
				}
				return
			case <-tick.C:
				line := tickerLine(t)
				pad := ""
				if n := width - len(line); n > 0 {
					pad = strings.Repeat(" ", n)
				}
				fmt.Fprintf(w, "\r%s%s", line, pad)
				if len(line) > width {
					width = len(line)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}
