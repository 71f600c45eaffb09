package lsm

import (
	"errors"
	"fmt"
	"time"
)

// ErrBackgroundError is the sentinel writes fail with while the DB is in a
// background error state (a flush, compaction or WAL write failed). Match
// with errors.Is; clear the state with DB.Resume (recoverable errors may
// also clear automatically, see Options.MaxBgErrorResumeCount).
var ErrBackgroundError = errors.New("lsm: background error")

// ErrCorruption is the sentinel wrapped by on-disk corruption failures
// (checksum mismatches, bad magic, malformed records). Corruption is never
// auto-recoverable.
var ErrCorruption = errors.New("lsm: corruption")

// ErrorSeverity classifies a background error, after RocksDB's
// Status::Severity.
type ErrorSeverity int

const (
	// SeverityNone: no background error.
	SeverityNone ErrorSeverity = iota
	// SeveritySoft: transient failure; retrying the failed job is expected
	// to succeed, and automatic recovery is attempted.
	SeveritySoft
	// SeverityHard: persistent failure; a manual DB.Resume can retry once
	// the underlying condition (disk full, permissions) is fixed.
	SeverityHard
	// SeverityFatal: corruption or unrecoverable state; Resume refuses and
	// the DB must be closed and repaired.
	SeverityFatal
)

// String renders the severity for logs.
func (s ErrorSeverity) String() string {
	switch s {
	case SeverityNone:
		return "none"
	case SeveritySoft:
		return "soft"
	case SeverityHard:
		return "hard"
	case SeverityFatal:
		return "fatal"
	default:
		return fmt.Sprintf("ErrorSeverity(%d)", int(s))
	}
}

// BGError is the sticky background error stored on the DB. It matches
// ErrBackgroundError via errors.Is and unwraps to the causing error.
type BGError struct {
	// Reason names the failed subsystem ("flush", "compaction", "wal",
	// "manifest").
	Reason string
	// Severity classifies recoverability.
	Severity ErrorSeverity
	// Cause is the underlying failure.
	Cause error
}

// Error implements error.
func (e *BGError) Error() string {
	return fmt.Sprintf("lsm: background error (%s, %s): %v", e.Reason, e.Severity, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As chains.
func (e *BGError) Unwrap() error { return e.Cause }

// Is reports a match for the ErrBackgroundError sentinel.
func (e *BGError) Is(target error) bool { return target == ErrBackgroundError }

// transienter is implemented by errors that model recoverable conditions
// (InjectedError with Transient, or future ENOSPC-style detection).
type transienter interface{ Transient() bool }

// classifyBGError maps a failure to a severity and auto-recoverability.
func classifyBGError(err error) (ErrorSeverity, bool) {
	if errors.Is(err, ErrCorruption) {
		return SeverityFatal, false
	}
	var t transienter
	if errors.As(err, &t) && t.Transient() {
		return SeveritySoft, true
	}
	return SeverityHard, false
}

// setBGErrorLocked records a background failure: the DB becomes read-only
// (writes fail with ErrBackgroundError) until Resume clears it. Higher
// severities replace lower ones; otherwise the first error wins. For
// recoverable errors the runtime may resume automatically (the OS runs a
// retry loop; the simulation has no real timers and recovers via explicit
// Resume). Caller holds db.mu.
func (db *DB) setBGErrorLocked(cause error, reason string) {
	sev, recoverable := classifyBGError(cause)
	if prev, ok := db.bgErr.(*BGError); ok && prev.Severity >= sev {
		return
	}
	db.bgErr = &BGError{Reason: reason, Severity: sev, Cause: cause}
	db.stats.Add(TickerBgError, 1)
	db.infoLog.logf("[bg_error] %s severity=%s: %v", reason, sev, cause)
	if recoverable && !db.recovering && !db.closed && db.options().MaxBgErrorResumeCount > 0 {
		db.rt.autoResume()
	}
}

// Resume clears a recoverable background error: it retries the failed work
// (re-runs pending flushes, re-syncs the WAL) and, on success, returns the
// DB to writable state and logs a recovery line. Fatal (corruption) errors
// refuse to resume. A nil return with no prior error is a no-op.
func (db *DB) Resume() error { return db.resume(false, 1) }

// resume is the shared manual/automatic recovery path.
func (db *DB) resume(auto bool, attempts int) error {
	db.commitMu.Lock()
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		db.commitMu.Unlock()
		return ErrClosed
	}
	prior := db.bgErr
	if prior == nil {
		db.mu.Unlock()
		db.commitMu.Unlock()
		return nil
	}
	if bge, ok := prior.(*BGError); ok && bge.Severity >= SeverityFatal {
		db.mu.Unlock()
		db.commitMu.Unlock()
		return fmt.Errorf("lsm: cannot resume from %s background error: %w", bge.Severity, prior)
	}
	db.bgErr = nil
	// A failed group sync may have acknowledged nothing while leaving bytes
	// buffered: make the WAL durable again before accepting writes.
	if db.wal != nil {
		if err := db.wal.sync(); err != nil {
			db.setBGErrorLocked(err, "wal")
			db.mu.Unlock()
			db.commitMu.Unlock()
			return db.bgErrSnapshot()
		}
	}
	// Failed flushes left their memtables on the families' imm lists; re-run
	// them.
	db.maybeScheduleFlushLocked(db.anyImmLocked())
	db.maybeScheduleCompactionLocked()
	db.mu.Unlock()
	db.commitMu.Unlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	for db.anyImmLocked() && db.bgErr == nil && !db.closed {
		if err := db.waitForBackgroundLocked(); err != nil {
			return err
		}
		db.maybeScheduleFlushLocked(true)
	}
	if db.bgErr != nil {
		return db.bgErr
	}
	if db.closed {
		return ErrClosed
	}
	db.stats.Add(TickerErrorRecoveryCount, 1)
	mode := "manual"
	if auto {
		mode = "auto"
	}
	db.infoLog.logf("[recovery] %s attempts=%d cleared: %v", mode, attempts, prior)
	return nil
}

// bgErrSnapshot reads db.bgErr without holding mu long.
func (db *DB) bgErrSnapshot() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.bgErr
}

// autoRecoverLoop retries Resume with capped exponential backoff until the
// error clears, turns fatal, the DB closes, or MaxBgErrorResumeCount attempts
// are spent. Runs in its own goroutine (osRuntime.autoResume); db.recovering
// guards re-entry.
func (db *DB) autoRecoverLoop() {
	base := time.Duration(db.options().BgErrorResumeRetryInterval) * time.Microsecond
	if base <= 0 {
		base = time.Millisecond
	}
	maxBackoff := 10 * base
	backoff := base
	defer func() {
		db.mu.Lock()
		db.recovering = false
		db.mu.Unlock()
	}()
	for attempt := 1; attempt <= db.options().MaxBgErrorResumeCount; attempt++ {
		time.Sleep(backoff)
		if backoff < maxBackoff {
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		db.mu.Lock()
		if db.closed || db.bgErr == nil {
			db.mu.Unlock()
			return
		}
		if bge, ok := db.bgErr.(*BGError); ok && bge.Severity >= SeverityFatal {
			db.mu.Unlock()
			return
		}
		db.mu.Unlock()
		if err := db.resume(true, attempt); err == nil || errors.Is(err, ErrClosed) {
			return
		}
	}
}
