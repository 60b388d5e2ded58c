package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Level orders log severities.
type Level int32

// Severity levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel maps a flag value ("debug", "info", "warn", "error") to a
// Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q", s)
}

// Format selects the line encoding of a Logger.
type Format int

const (
	// FormatKV is the default human-oriented key=value encoding.
	FormatKV Format = iota
	// FormatJSON writes one JSON object per line with the same fields as
	// FormatKV (time, level, msg, then the pairs), for log pipelines that
	// ingest structured records.
	FormatJSON
)

// ParseFormat maps a flag value ("kv", "json") to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "kv", "text", "":
		return FormatKV, nil
	case "json":
		return FormatJSON, nil
	}
	return FormatKV, fmt.Errorf("obs: unknown log format %q", s)
}

// Logger writes leveled key=value lines:
//
//	time=2026-08-05T12:00:00.000Z level=info msg="session created" id=s-1f
//
// or, under FormatJSON, the same record as one JSON object per line:
//
//	{"time":"2026-08-05T12:00:00.000Z","level":"info","msg":"session created","id":"s-1f"}
//
// A nil *Logger discards everything, so call sites never branch.
type Logger struct {
	mu     sync.Mutex // one line at a time, so concurrent writes never interleave
	w      io.Writer
	min    Level
	format Format
	now    func() time.Time
}

// NewLogger returns a key=value logger writing lines at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return NewLoggerFormat(w, min, FormatKV)
}

// NewLoggerFormat is NewLogger with an explicit line format.
func NewLoggerFormat(w io.Writer, min Level, format Format) *Logger {
	return &Logger{w: w, min: min, format: format, now: time.Now}
}

// Enabled reports whether level would be written; guard expensive argument
// construction with it.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.min
}

// Debug logs at LevelDebug.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at LevelWarn.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at LevelError.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(level Level, msg string, kv []any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	if l.format == FormatJSON {
		b.WriteString(`{"time":"`)
		b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
		b.WriteString(`","level":"`)
		b.WriteString(level.String())
		b.WriteString(`","msg":`)
		b.WriteString(jsonValue(msg))
		appendPairsJSON(&b, kv)
		b.WriteByte('}')
	} else {
		b.WriteString("time=")
		b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
		b.WriteString(" level=")
		b.WriteString(level.String())
		b.WriteString(" msg=")
		b.WriteString(formatValue(msg))
		appendPairs(&b, kv)
	}
	b.WriteByte('\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = io.WriteString(l.w, b.String())
}

// appendPairs renders alternating key/value arguments; a trailing odd
// value is logged under the key "!extra" rather than dropped.
func appendPairs(b *strings.Builder, kv []any) {
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		b.WriteString(formatKey(kv[i]))
		b.WriteByte('=')
		b.WriteString(formatValue(kv[i+1]))
	}
	if len(kv)%2 != 0 {
		b.WriteString(" !extra=")
		b.WriteString(formatValue(kv[len(kv)-1]))
	}
}

func formatKey(k any) string {
	s, ok := k.(string)
	if !ok {
		s = fmt.Sprint(k)
	}
	if needsQuoting(s) {
		return strconv.Quote(s)
	}
	return s
}

// needsQuoting reports whether a key=value token must be quoted to keep
// the line parseable: empty, containing separator bytes (space, '=',
// quote, newline) or any control character.
func needsQuoting(s string) bool {
	if s == "" || strings.ContainsAny(s, " =\"\n") {
		return true
	}
	for _, r := range s {
		if r < 0x20 || r == 0x7f {
			return true
		}
	}
	return false
}

// appendPairsJSON is appendPairs for FormatJSON: each pair is rendered as
// `,"key":value` with native JSON numbers and booleans.
func appendPairsJSON(b *strings.Builder, kv []any) {
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(',')
		b.WriteString(jsonKey(kv[i]))
		b.WriteByte(':')
		b.WriteString(jsonValue(kv[i+1]))
	}
	if len(kv)%2 != 0 {
		b.WriteString(`,"!extra":`)
		b.WriteString(jsonValue(kv[len(kv)-1]))
	}
}

func jsonKey(k any) string {
	s, ok := k.(string)
	if !ok {
		s = fmt.Sprint(k)
	}
	out, _ := json.Marshal(s)
	return string(out)
}

// jsonValue renders a value as a JSON token. Numbers and booleans stay
// native; errors, Stringers and Durations become their string form; types
// json cannot marshal fall back to their fmt.Sprint rendering.
func jsonValue(v any) string {
	switch t := v.(type) {
	case error:
		v = t.Error()
	case time.Duration:
		v = t.String()
	case fmt.Stringer:
		v = t.String()
	}
	out, err := json.Marshal(v)
	if err != nil {
		out, _ = json.Marshal(fmt.Sprint(v))
	}
	return string(out)
}

func formatValue(v any) string {
	var s string
	switch t := v.(type) {
	case string:
		s = t
	case error:
		s = t.Error()
	case time.Duration:
		s = t.String()
	case fmt.Stringer:
		s = t.String()
	default:
		s = fmt.Sprint(v)
	}
	if needsQuoting(s) {
		return strconv.Quote(s)
	}
	return s
}
