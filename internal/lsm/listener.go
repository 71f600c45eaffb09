package lsm

import (
	"fmt"
	"sync"
)

// StallCondition is the write controller's state, mirroring RocksDB's
// WriteStallCondition.
type StallCondition int

const (
	// StallNormal: writes proceed at full speed.
	StallNormal StallCondition = iota
	// StallDelayed: writes are throttled to delayed_write_rate.
	StallDelayed
	// StallStopped: writes block until background work catches up.
	StallStopped
)

// String renders the condition for logs.
func (s StallCondition) String() string {
	switch s {
	case StallNormal:
		return "normal"
	case StallDelayed:
		return "delayed"
	case StallStopped:
		return "stopped"
	default:
		return fmt.Sprintf("StallCondition(%d)", int(s))
	}
}

// InfoLogFileName returns the path of the DB's RocksDB-style LOG file.
func InfoLogFileName(dir string) string { return dir + "/LOG" }

// infoLog writes the RocksDB-style LOG file in the DB directory: the
// engine's single record of its events. The engine formats each line where
// the event happens: open/close banners, flush, compaction, stall
// transitions, background errors and recoveries, set_options changes, and
// statistics dumps.
type infoLog struct {
	mu  sync.Mutex
	f   WritableFile
	env Env
}

// openInfoLog opens (truncating) dir/LOG. Returns nil on failure: info
// logging is best-effort, and every method is a no-op on nil.
func openInfoLog(env Env, dir string) *infoLog {
	f, err := env.NewWritableFile(InfoLogFileName(dir), IOBackground)
	if err != nil {
		return nil
	}
	return &infoLog{f: f, env: env}
}

// logf appends one timestamped line. The timestamp is the env clock
// (virtual time under simulation), so LOG output is deterministic in sim
// runs.
func (l *infoLog) logf(format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	line := fmt.Sprintf("%014.6f %s\n", l.env.Now().Seconds(), fmt.Sprintf(format, args...))
	l.f.Append([]byte(line))
}

// logRaw appends a multi-line block verbatim (statistics dumps).
func (l *infoLog) logRaw(text string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return
	}
	l.f.Append([]byte(text))
}

func (l *infoLog) close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// setStallConditionLocked records a write-controller transition and logs it
// when the condition actually changed. Caller holds db.mu.
func (db *DB) setStallConditionLocked(cond StallCondition, l0 int, pending int64) {
	if db.stallCond == cond {
		return
	}
	db.infoLog.logf("[stall] %s -> %s (l0_files=%d pending_compaction_bytes=%d)", db.stallCond, cond, l0, pending)
	db.stallCond = cond
}
