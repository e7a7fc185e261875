package serve

import (
	"context"
	"errors"
)

// ErrRejected is returned by the interceptor when RejectDowngraded is set
// and the request failed its admission draw, or when a quota fail-closed
// policy dropped it during a quota-plane outage. Map it to your RPC
// framework's RESOURCE_EXHAUSTED / retry-later status.
var ErrRejected = errors.New("serve: rejected by admission control")

// ErrExpired is returned when the RPC's remaining deadline budget could
// not cover the class's observed latency floor — the work would have
// outlived its caller. Map it to DEADLINE_EXCEEDED.
var ErrExpired = errors.New("serve: deadline budget exhausted before admission")

// ErrShed is returned when the brownout ladder shed the RPC under
// overload. Map it to UNAVAILABLE / retry-later.
var ErrShed = errors.New("serve: shed by overload brownout")

// UnaryHandler continues the RPC after admission, mirroring
// grpc.UnaryHandler.
type UnaryHandler func(ctx context.Context, req any) (any, error)

// UnaryServerInfo describes the RPC being admitted, mirroring
// grpc.UnaryServerInfo.
type UnaryServerInfo struct {
	// FullMethod is the RPC method name ("/service/Method").
	FullMethod string
}

// UnaryInterceptor is the interceptor signature, shaped so that wrapping
// it into a grpc.UnaryServerInterceptor is a one-line adapter:
//
//	grpc.UnaryInterceptor(func(ctx context.Context, req any,
//	        info *grpc.UnaryServerInfo, h grpc.UnaryHandler) (any, error) {
//	    return icpt(ctx, req, &serve.UnaryServerInfo{FullMethod: info.FullMethod},
//	        serve.UnaryHandler(h))
//	})
type UnaryInterceptor func(ctx context.Context, req any, info *UnaryServerInfo, handler UnaryHandler) (any, error)

// RPCClassifier maps one RPC to its admission channel.
type RPCClassifier func(ctx context.Context, info *UnaryServerInfo, req any) Request

// UnaryInterceptor returns a gRPC-style unary server interceptor running
// this admission layer. classify may be nil, in which case the channel
// peer is the RPC's full method, the class the highest, and the size one
// MTU. The admission verdict is available to the handler through
// FromContext; completion latency (including handler errors — a failed
// RPC still occupied the channel) is fed back as the SLO observation.
// With Deadline configured, the RPC context's deadline is the budget;
// RPCs that cannot finish inside it fail fast with ErrExpired.
func (a *Admission) UnaryInterceptor(classify RPCClassifier) UnaryInterceptor {
	if classify == nil {
		classify = func(_ context.Context, info *UnaryServerInfo, _ any) Request {
			return Request{Peer: info.FullMethod, Class: 0}
		}
	}
	return func(ctx context.Context, req any, info *UnaryServerInfo, handler UnaryHandler) (any, error) {
		budget, haveBudget := a.budgetFromRequest(nil, ctx)
		rec := a.begin(classify(ctx, info, req), budget, haveBudget)
		if err := refusals[rec.cause].err; err != nil {
			return nil, err
		}
		resp, err := handler(&verdictCtx{ctx, rec.v}, req)
		a.end(&rec)
		return resp, err
	}
}
