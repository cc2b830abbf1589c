package exec

import (
	"context"
	"errors"
	"fmt"
)

// Typed execution errors. Callers classify failures with errors.Is
// against these sentinels; the concrete errors returned by the engine
// wrap them with run-specific detail (budgets, operator names, plan
// fingerprints).
var (
	// ErrRowBudget marks an execution aborted because it produced more
	// operator rows than Context.RowBudget allows.
	ErrRowBudget = errors.New("exec: row budget exceeded")
	// ErrMemBudget marks an execution aborted because an operator would
	// exceed Context.MemBudget and spilling was unavailable or disabled.
	ErrMemBudget = errors.New("exec: memory budget exceeded")
	// ErrCanceled marks an execution stopped by context cancellation.
	ErrCanceled = errors.New("exec: query canceled")
	// ErrTimeout marks an execution stopped by a context deadline
	// (Config.Timeout or a caller-supplied deadline).
	ErrTimeout = errors.New("exec: query deadline exceeded")
	// ErrInternal marks an operator or worker panic converted into an
	// error by the executor's containment layer.
	ErrInternal = errors.New("exec: internal error")
)

func errRowBudget(budget int64) error {
	return fmt.Errorf("%w (budget %d rows)", ErrRowBudget, budget)
}

func errMemBudget(op string, budget, used int64) error {
	if op == "" {
		return fmt.Errorf("%w (budget %d bytes, needed %d)", ErrMemBudget, budget, used)
	}
	return fmt.Errorf("%w in %s (budget %d bytes, needed %d)", ErrMemBudget, op, budget, used)
}

// ctxErr maps a context error to the engine's typed taxonomy while
// keeping the original cause visible to errors.Is.
func ctxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}

// InternalError is a contained operator or worker panic: the panic
// value plus where it happened (operator name) and which plan it
// happened in (fingerprint). It unwraps to ErrInternal.
type InternalError struct {
	// Op is the operator whose Open/NextBatch/Close panicked (e.g. "Join",
	// "GroupBy", "exchange-worker").
	Op string
	// Fingerprint identifies the plan (see Context.Fingerprint).
	Fingerprint string
	// Value is the recovered panic value.
	Value any
}

func (e *InternalError) Error() string {
	if e.Fingerprint != "" {
		return fmt.Sprintf("exec: internal error in %s (plan %s): %v", e.Op, e.Fingerprint, e.Value)
	}
	return fmt.Sprintf("exec: internal error in %s: %v", e.Op, e.Value)
}

func (e *InternalError) Unwrap() error { return ErrInternal }

// recovered converts a recovered panic value into an *InternalError,
// passing through errors that are already contained panics (nested
// guards re-panic nothing; this handles guard-inside-guard layering).
func recovered(op, fingerprint string, v any) error {
	if ie, ok := v.(*InternalError); ok {
		return ie
	}
	return &InternalError{Op: op, Fingerprint: fingerprint, Value: v}
}
