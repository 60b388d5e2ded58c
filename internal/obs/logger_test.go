package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// fixedClock makes log lines deterministic.
func fixedClock() time.Time {
	return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
}

func TestLoggerFormat(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelDebug)
	l.now = fixedClock
	l.Info("session created", "id", "s-1f", "warm", true, "iters", 25)
	l.Warn("slow suggest", "dur", 1500*time.Millisecond)
	l.Error("boom", "err", errors.New("disk full: no space"))

	want := `time=2026-08-05T12:00:00.000Z level=info msg="session created" id=s-1f warm=true iters=25
time=2026-08-05T12:00:00.000Z level=warn msg="slow suggest" dur=1.5s
time=2026-08-05T12:00:00.000Z level=error msg=boom err="disk full: no space"
`
	if b.String() != want {
		t.Fatalf("log mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelWarn)
	l.now = fixedClock
	l.Debug("hidden")
	l.Info("hidden too")
	l.Warn("visible")
	if got := b.String(); strings.Contains(got, "hidden") || !strings.Contains(got, "visible") {
		t.Fatalf("level filtering broken: %q", got)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelError) {
		t.Fatal("Enabled disagrees with the configured level")
	}
}

func TestNilLogger(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x", "k", "v")
	l.Warn("x")
	l.Error("x")
	if l.Enabled(LevelError) {
		t.Fatal("nil logger reports enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "WARN": LevelWarn, "error": LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted junk")
	}
}

func TestOddKeyValuePairs(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelInfo)
	l.now = fixedClock
	l.Info("odd", "k1", "v1", "dangling")
	if got := b.String(); !strings.Contains(got, "!extra=dangling") {
		t.Fatalf("dangling value dropped: %q", got)
	}
}

func TestLoggerJSONFormat(t *testing.T) {
	var b strings.Builder
	l := NewLoggerFormat(&b, LevelDebug, FormatJSON)
	l.now = fixedClock
	l.Info("session created", "id", "s-1f", "warm", true, "iters", 25, "ratio", 0.5)
	l.Warn("slow suggest", "dur", 1500*time.Millisecond)
	l.Error("boom", "err", errors.New(`disk "full"`))

	want := `{"time":"2026-08-05T12:00:00.000Z","level":"info","msg":"session created","id":"s-1f","warm":true,"iters":25,"ratio":0.5}
{"time":"2026-08-05T12:00:00.000Z","level":"warn","msg":"slow suggest","dur":"1.5s"}
{"time":"2026-08-05T12:00:00.000Z","level":"error","msg":"boom","err":"disk \"full\""}
`
	if b.String() != want {
		t.Fatalf("json log mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}

	// Every line must parse as standalone JSON with the expected fields.
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line is not valid JSON: %v\n%s", err, line)
		}
		for _, key := range []string{"time", "level", "msg"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("line missing %q: %s", key, line)
			}
		}
	}
}

func TestParseFormat(t *testing.T) {
	for s, want := range map[string]Format{"kv": FormatKV, "text": FormatKV, "JSON": FormatJSON, "": FormatKV} {
		got, err := ParseFormat(s)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Fatal("ParseFormat accepted junk")
	}
}

// TestLoggerJSONEscaping pins the JSON logger's handling of hostile value
// bytes: control characters, '=' and quotes must survive a round trip
// through encoding and never appear raw on the wire, where they would
// corrupt line-oriented log shippers.
func TestLoggerJSONEscaping(t *testing.T) {
	var b strings.Builder
	l := NewLoggerFormat(&b, LevelDebug, FormatJSON)
	l.now = fixedClock
	msg := "weird \"msg\" \x01with ctl"
	val := "a=b\nc\td\x00e\"f"
	l.Info(msg, "key \"with\" quotes", val, "plain", "ok")

	line := b.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("line not newline-terminated: %q", line)
	}
	for i := 0; i < len(line)-1; i++ {
		if line[i] < 0x20 {
			t.Fatalf("raw control byte 0x%02x at offset %d on the wire: %q", line[i], i, line)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%q", err, line)
	}
	if doc["msg"] != msg {
		t.Errorf("msg round-trip: got %q, want %q", doc["msg"], msg)
	}
	if doc[`key "with" quotes`] != val {
		t.Errorf("value round-trip: got %q, want %q", doc[`key "with" quotes`], val)
	}
	if doc["plain"] != "ok" {
		t.Errorf("plain value: got %q", doc["plain"])
	}
}

// TestLoggerKVEscaping pins the key=value format: values carrying '=',
// quotes or control characters are strconv-quoted so the line stays
// splittable on spaces and parseable with strconv.Unquote.
func TestLoggerKVEscaping(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, LevelDebug)
	l.now = fixedClock
	l.Info("m", "eq", "a=b", "ctl", "x\x01y", "tab", "x\ty", "quote", `x"y`)

	line := strings.TrimSuffix(b.String(), "\n")
	for i := 0; i < len(line); i++ {
		if line[i] < 0x20 {
			t.Fatalf("raw control byte 0x%02x on the wire: %q", line[i], line)
		}
	}
	for _, want := range []string{`eq="a=b"`, `ctl="x\x01y"`, `tab="x\ty"`, `quote="x\"y"`} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %s:\n%q", want, line)
		}
	}
}
