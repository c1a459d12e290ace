package core

import (
	"context"
	"errors"
	"time"

	"dagger/internal/fabric"
	"dagger/internal/retry"
)

// Retryable reports whether an RPC error is safe to retry: the request
// provably did not execute, so a retry cannot duplicate side effects. Shed
// requests never reached a handler; ring-full send failures never left the
// client; congestion-window refusals were never sent at all. Timeouts are
// NOT retryable — the handler may have run. ErrPeerDead is NOT retryable
// either: although the request provably never executed, the path to the peer
// is dead, and retrying converts one fast failure into MaxRetries slow ones.
func Retryable(err error) bool {
	return errors.Is(err, ErrShed) || errors.Is(err, fabric.ErrRingFull) ||
		errors.Is(err, ErrCongested)
}

// CallRetry issues a blocking RPC on the default connection, retrying safe
// failures (see Retryable) under the policy's backoff schedule. Retries stop
// when attempts are exhausted, ctx is done, or the remaining ctx budget
// cannot absorb the next backoff delay (retry.ErrBudgetExhausted wraps the
// last RPC error in that case).
func (c *RpcClient) CallRetry(ctx context.Context, p retry.Policy, fnID uint16, req []byte) ([]byte, error) {
	conn, err := c.defaultConnID()
	if err != nil {
		return nil, err
	}
	return c.CallConnRetry(ctx, p, conn, fnID, req)
}

// CallConnRetry is CallRetry on a specific connection.
func (c *RpcClient) CallConnRetry(ctx context.Context, p retry.Policy, connID uint32, fnID uint16, req []byte) ([]byte, error) {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// The connection's last congestion hint scales the backoff:
			// a congested peer gets multiplicatively more breathing room
			// than the uncongested schedule would give it.
			d, ok := p.NextDelayScaled(attempt, remainingBudget(ctx), c.backoffScale(connID))
			if !ok {
				return nil, errors.Join(retry.ErrBudgetExhausted, lastErr)
			}
			if d > 0 {
				t := acquireTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					releaseTimer(t)
					return nil, ctx.Err()
				case <-c.stop:
					releaseTimer(t)
					return nil, ErrClientClose
				}
				releaseTimer(t)
			}
		}
		resp, err := c.CallConnContext(ctx, connID, fnID, req)
		if err == nil || !Retryable(err) {
			return resp, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// remainingBudget returns the time left until ctx's deadline, or 0 when ctx
// has none (retry.Policy treats 0 as unbounded).
func remainingBudget(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return time.Until(dl)
}
