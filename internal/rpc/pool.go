package rpc

import "sync"

// Request pooling. Request messages are never retained by the connection:
// Conn.Call reads them, the endpoints dispatch on them, and the replay
// caches record only responses — so a client helper can return its request
// to a pool the moment Call returns. Responses are NOT poolable: every
// executed (xid → response) pair lives in the endpoint's replay cache, and
// reusing a cached response struct would corrupt replayed retries. (The
// empty ack responses are zero-sized and cost nothing to "allocate".)
//
// The pools matter because data-path clients build one request per striped
// piece: a single benchmark run issues millions of ObjWriteReq/ObjReadReq/
// ObjExtCountReq values that all died within one call.
type reqPool[T any] struct{ p sync.Pool }

// get returns a zeroed-or-recycled request.
func (rp *reqPool[T]) get() *T {
	if v := rp.p.Get(); v != nil {
		return v.(*T)
	}
	return new(T)
}

// put recycles a request the connection has finished with.
func (rp *reqPool[T]) put(x *T) {
	rp.p.Put(x)
}

// Pools for the per-block and per-piece hot requests. Cold control requests
// (mkdir, open, layout) are not worth pooling.
// extCountRespCache interns the extent-count responses for small counts —
// the single hottest non-empty response type (the PFS client polls every
// component's extent count around each write for churn accounting). The
// cached values are shared and immutable: the replay caches may retain
// them indefinitely, which is exactly why they can never be pooled.
var extCountRespCache = func() [4096]*ObjExtCountResp {
	var t [4096]*ObjExtCountResp
	for i := range t {
		t[i] = &ObjExtCountResp{Count: i}
	}
	return t
}()

// extCountResp returns the (possibly interned) response for count n.
func extCountResp(n int) *ObjExtCountResp {
	if n >= 0 && n < len(extCountRespCache) {
		return extCountRespCache[n]
	}
	return &ObjExtCountResp{Count: n}
}

var (
	objCreateReqPool   reqPool[ObjCreateReq]
	objWriteReqPool    reqPool[ObjWriteReq]
	objReadReqPool     reqPool[ObjReadReq]
	objExtCountReqPool reqPool[ObjExtCountReq]
	objFsyncReqPool    reqPool[ObjFsyncReq]
	objCloseReqPool    reqPool[ObjCloseReq]
	extentChurnReqPool reqPool[ExtentChurnReq]
)
