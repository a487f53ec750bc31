package dispatch

import "spin/internal/stripe"

// stripedCounter is the dispatcher's statistics counter, sharded across
// cache-line-padded cells; see internal/stripe. It moved to its own package
// so the code generator's executors can update per-binding fire counts
// through the same stripes (codegen.Binding.FireCount) with one hoisted
// shard index per raise.
type stripedCounter = stripe.Counter
