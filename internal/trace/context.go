// Context plumbing: the tracer and the current span travel through
// context.Context so instrumentation sites need no extra parameters.

package trace

import "context"

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns a context from which Start creates root spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// FromContext returns the context's current span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Disabled reports whether tracing is off for this context: it carries
// no tracer (a context with a span always carries its tracer too). The
// check is one context lookup with no allocations — instrumented hot
// paths may call it every iteration.
func Disabled(ctx context.Context) bool {
	return TracerFrom(ctx) == nil
}

// Start begins a span named name: a child of the context's current span
// when one exists, otherwise a new root trace on the context's tracer.
// The returned context carries the new span for further nesting. When
// the context has no tracer it returns ctx unchanged and a nil span, at
// zero allocation cost.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		s := &Span{
			tr:       parent.tr,
			data:     parent.data,
			traceID:  parent.traceID,
			id:       SpanID(parent.tr.newID()),
			parentID: parent.id,
			name:     name,
			start:    parent.tr.now(),
			attrs:    attrs,
		}
		return context.WithValue(ctx, spanKey, s), s
	}
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	id := TraceID(tr.newID())
	data := &traceData{tr: tr, id: id}
	s := &Span{
		tr:      tr,
		data:    data,
		traceID: id,
		id:      SpanID(tr.newID()),
		name:    name,
		start:   tr.now(),
		attrs:   attrs,
	}
	data.root = s.id
	return context.WithValue(ctx, spanKey, s), s
}
