package mtcache

import "relaxedcc/internal/obs"

// TraceEvery makes the cache's tracer sample one query in n, from the next
// query on. For tests, before traffic; the link and the agents keep counting
// their span events on the tracer the cache was made with.
func (c *Cache) TraceEvery(n int) {
	c.obs.tracer = obs.NewTracer(c.obs.reg, n, obs.DefaultRingSize)
}
