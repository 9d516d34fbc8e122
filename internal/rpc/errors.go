package rpc

import (
	"context"
	"errors"
)

// Error classification for the resilience layer. Every RPC failure falls
// in one of two classes:
//
//   - Transient: the transport failed (socket died, dial refused, injected
//     fault, per-attempt deadline expired) and the caller cannot know
//     whether the handler executed. Retrying is reasonable, but only for
//     idempotent operations or requests carrying a dedup ID (proto attaches
//     one to IncRef/DecRef/Retire/StoreModel so providers can answer a
//     retry from their retry-reply cache instead of re-executing).
//   - Permanent: the handler executed and returned an application error
//     (remoteError), or the caller itself gave up (context.Canceled, a
//     closed local connection). Retrying would re-fail or is unwanted.
//
// ErrUnavailable and ErrInjected exist so tests and callers can match the
// middleware's own failures with errors.Is.
var (
	// ErrUnavailable is returned by the resilience middleware when a
	// provider's circuit breaker is open and the call was shed without
	// touching the network.
	ErrUnavailable = errors.New("rpc: provider unavailable (circuit open)")

	// ErrInjected is the cause of every failure produced by a fault
	// wrapper. It classifies as transient.
	ErrInjected = errors.New("rpc: injected fault")

	// ErrFrameTooLarge is returned when a payload's length field would
	// exceed MaxFrame, checked on the send side before any byte is
	// written: the frame is never emitted, so the connection stays
	// usable. Servers report an oversized *response* to the client as a
	// remote error carrying this error's text. It classifies as
	// permanent: retrying the same payload would fail identically.
	ErrFrameTooLarge = errors.New("rpc: frame exceeds size limit")
)

// IsFrameTooLarge reports whether err is a sender-side oversized-frame
// rejection (the frame never touched the wire, so the connection remains
// usable).
func IsFrameTooLarge(err error) bool { return errors.Is(err, ErrFrameTooLarge) }

// transientErr marks an error as explicitly transient.
type transientErr struct{ err error }

func (e *transientErr) Error() string { return e.err.Error() }
func (e *transientErr) Unwrap() error { return e.err }

// MarkTransient wraps err so IsTransient reports true regardless of the
// default classification.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err is worth retrying on a healthy provider.
// Transport-level failures and per-attempt timeouts are transient; remote
// handler errors, caller cancellation and locally closed connections are
// permanent.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *transientErr
	if errors.As(err, &te) {
		return true
	}
	switch {
	case errors.Is(err, context.Canceled):
		return false // the caller gave up; do not retry behind its back
	case errors.Is(err, ErrClosed):
		return false // this client closed the connection deliberately
	case errors.Is(err, ErrFrameTooLarge):
		return false // the same payload would exceed the limit again
	case IsRemote(err):
		return false // the handler ran; its verdict is authoritative
	case errors.Is(err, ErrUnavailable), errors.Is(err, ErrInjected):
		return true
	case errors.Is(err, context.DeadlineExceeded):
		return true // per-attempt deadline; the overall budget may remain
	default:
		return true // unclassified transport failure (dial, read, write)
	}
}
