// Hand-rolled binary codec for the hot RPC messages. encoding/gob pays
// reflection plus self-describing type preambles on every self-contained
// Marshal; the half-dozen message types that dominate cluster traffic
// (search fan-out, staged block ingest, region fetches, repair pushes) are
// instead encoded field-by-field: varint integers, fixed 8-byte floats,
// length-prefixed byte strings. Decoding is zero-copy: []byte fields of
// decoded messages are views into the input buffer, so a frame is decoded
// with one allocation per slice-of-struct field and none per byte field.
// Callers that hand a decoded message to code that retains it (the node
// block store keeps IndexBlocks contents forever) must therefore not
// recycle the input buffer; the transports allocate a fresh buffer per
// received frame for exactly this reason, and pool only encode-side
// scratch (GetFrame/PutFrame).
//
// Cold and rare messages (Bootstrap, Metrics, Stats, TraceFetch, topology
// updates) stay on gob: their cost is irrelevant, and gob already handles
// their nested maps, times and recursive span trees. AppendMessage is the
// one place a message's encoding is chosen — the binary body for hot
// types, ColdTag plus a self-contained Marshal envelope for the rest — and
// DecodeMessage is its inverse. The TCP transport, the in-memory encode
// check and span byte accounting all call this pair, so what is tested in
// process is byte for byte what a socket carries.
//
// Wire-format equivalence with gob is pinned by TestCodecGobEquivalence
// and the FuzzCodecEquivalence differential fuzz target: a binary
// round trip must yield exactly the value a gob round trip yields
// (including gob's empty-slice-decodes-as-nil convention).
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"

	"mendel/internal/obs"
	"mendel/internal/seq"
)

// Message type tags. Tag 0 is reserved (never emitted), and ColdTag and
// tagError open the two encodings that are not a hot message body, so none
// of them can collide with a message.
const (
	tagInvalid byte = 0

	tagGroupSearch            byte = 1
	tagGroupSearchResult      byte = 2
	tagGroupSearchBatch       byte = 3
	tagGroupSearchBatchResult byte = 4
	tagLocalSearch            byte = 5
	tagLocalSearchResult      byte = 6
	tagIndexBlocks            byte = 7
	tagIndexBlocksAck         byte = 8
	tagFetchRegion            byte = 9
	tagRegion                 byte = 10
	tagPushBlocks             byte = 11
	tagPushBlocksAck          byte = 12
	tagPushSequences          byte = 13
	tagPushSequencesAck       byte = 14
	tagSketchFetch            byte = 15
	tagSketchFetchResult      byte = 16
	tagBuildIndex             byte = 17
	tagBuildIndexAck          byte = 18
	tagStoreSequences         byte = 19
	tagStoreSequencesAck      byte = 20

	// ColdTag opens the encoding of a cold message (one without a binary
	// codec): the rest of the input is its Marshal gob envelope.
	ColdTag byte = 0xFE

	// tagError marks a transport-level error response (a string, not a
	// message); exported to transports via AppendErrorResponse/DecodeResponse.
	tagError byte = 0xFF
)

// frame pool: encode-side scratch buffers, the []byte counterpart of
// bufPool. Stored as *[]byte so Put does not allocate a slice header.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetFrame returns a pooled zero-length byte slice for building frames.
// Release with PutFrame once the frame has been written to the wire;
// never release a buffer whose contents a decoded message still aliases.
func GetFrame() *[]byte { return framePool.Get().(*[]byte) }

// PutFrame recycles a frame buffer, keeping its grown capacity.
func PutFrame(b *[]byte) {
	*b = (*b)[:0]
	framePool.Put(b)
}

// AppendHot appends the binary encoding of a hot message (type tag + body)
// to dst and reports whether msg had a binary codec; dst is returned
// unchanged for cold messages.
func AppendHot(dst []byte, msg any) ([]byte, bool) {
	switch m := msg.(type) {
	case GroupSearch:
		dst = append(dst, tagGroupSearch)
		return appendGroupSearch(dst, &m), true
	case GroupSearchResult:
		dst = append(dst, tagGroupSearchResult)
		return appendGroupSearchResult(dst, &m), true
	case GroupSearchBatch:
		dst = append(dst, tagGroupSearchBatch)
		dst = appendInt(dst, m.Group)
		dst = appendUvarint(dst, uint64(len(m.Items)))
		for i := range m.Items {
			dst = appendGroupSearch(dst, &m.Items[i])
		}
		dst = appendUvarint(dst, uint64(len(m.TCs)))
		for _, tc := range m.TCs {
			dst = AppendTraceContext(dst, tc)
		}
		return dst, true
	case GroupSearchBatchResult:
		dst = append(dst, tagGroupSearchBatchResult)
		dst = appendUvarint(dst, uint64(len(m.Items)))
		for i := range m.Items {
			dst = appendGroupSearchResult(dst, &m.Items[i])
		}
		return appendSlice(dst, m.Errs, appendString), true
	case LocalSearch:
		dst = append(dst, tagLocalSearch)
		dst = appendBytes(dst, m.Query)
		dst = appendInts(dst, m.Offsets)
		dst = appendInt(dst, m.WindowLen)
		return appendParams(dst, &m.Params), true
	case LocalSearchResult:
		dst = append(dst, tagLocalSearchResult)
		dst = appendAnchors(dst, m.Anchors)
		dst = appendInt64(dst, m.KNNNs)
		dst = appendInt64(dst, m.ExtendNs)
		dst = appendInt64(dst, m.Visits)
		return appendSpans(dst, m.Spans), true
	case IndexBlocks:
		dst = append(dst, tagIndexBlocks)
		dst = appendUvarint(dst, uint64(len(m.Blocks)))
		for i := range m.Blocks {
			b := &m.Blocks[i]
			dst = appendUvarint(dst, uint64(b.Seq))
			dst = appendInt(dst, b.Start)
			dst = appendBytes(dst, b.Content)
			dst = appendBytes(dst, b.Context)
			dst = appendInt(dst, b.CtxOff)
		}
		dst = appendUvarint(dst, uint64(len(m.Runs)))
		for i := range m.Runs {
			dst = appendRun(dst, &m.Runs[i])
		}
		return append(dst, boolByte(m.Stage)), true
	case IndexBlocksAck:
		dst = append(dst, tagIndexBlocksAck)
		return appendInt(dst, m.Accepted), true
	case FetchRegion:
		dst = append(dst, tagFetchRegion)
		dst = appendUvarint(dst, uint64(m.Seq))
		dst = appendInt(dst, m.Start)
		return appendInt(dst, m.End), true
	case Region:
		dst = append(dst, tagRegion)
		dst = appendUvarint(dst, uint64(m.Seq))
		dst = appendInt(dst, m.Start)
		dst = appendBytes(dst, m.Data)
		return appendInt(dst, m.Len), true
	case PushBlocks:
		dst = append(dst, tagPushBlocks)
		dst = appendString(dst, m.Target)
		return appendSlice(dst, m.Refs, appendUvarint), true
	case PushBlocksAck:
		dst = append(dst, tagPushBlocksAck)
		dst = appendInt(dst, m.Pushed)
		return appendInt(dst, m.Missing), true
	case PushSequences:
		dst = append(dst, tagPushSequences)
		dst = appendString(dst, m.Target)
		return appendSlice(dst, m.IDs, appendID), true
	case PushSequencesAck:
		dst = append(dst, tagPushSequencesAck)
		dst = appendInt(dst, m.Pushed)
		return appendInt(dst, m.Missing), true
	case SketchFetch:
		return append(dst, tagSketchFetch), true
	case SketchFetchResult:
		dst = append(dst, tagSketchFetchResult)
		dst = appendString(dst, m.Node)
		return appendBytes(dst, m.Sketch), true
	case BuildIndex:
		return append(dst, tagBuildIndex), true
	case BuildIndexAck:
		dst = append(dst, tagBuildIndexAck)
		return appendInt(dst, m.Items), true
	case StoreSequences:
		dst = append(dst, tagStoreSequences)
		dst = appendSlice(dst, m.IDs, appendID)
		dst = appendSlice(dst, m.Names, appendString)
		return appendSlice(dst, m.Data, appendBytes), true
	case StoreSequencesAck:
		return append(dst, tagStoreSequencesAck), true
	}
	return dst, false
}

// DecodeHot decodes an AppendHot-encoded payload. Byte-slice fields of the
// result alias data; the input must be fully consumed (trailing bytes are
// an error). It never panics on arbitrary input (fuzz-enforced).
func DecodeHot(data []byte) (any, error) {
	r := reader{b: data}
	msg := decodeHot(&r)
	if err := r.done("message"); err != nil {
		return nil, err
	}
	return msg, nil
}

// AppendMessage appends msg's wire encoding to dst: AppendHot's for hot
// messages, otherwise ColdTag followed by the Marshal gob envelope. On error
// dst is returned unchanged.
func AppendMessage(dst []byte, msg any) ([]byte, error) {
	if b, ok := AppendHot(dst, msg); ok {
		return b, nil
	}
	b, err := appendEnvelope(append(dst, ColdTag), msg)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// DecodeMessage decodes an AppendMessage encoding; the input must be fully
// consumed. Byte-slice fields of hot messages alias data. It never panics on
// arbitrary input (fuzz-enforced).
func DecodeMessage(data []byte) (any, error) {
	r := reader{b: data}
	msg := decodeMessage(&r)
	if err := r.done("message"); err != nil {
		return nil, err
	}
	return msg, nil
}

// decodeMessage reads one AppendMessage encoding. A cold message's gob
// envelope runs to the end of the input.
func decodeMessage(r *reader) any {
	if r.err != nil || r.off >= len(r.b) || r.b[r.off] != ColdTag {
		return decodeHot(r)
	}
	msg, err := Unmarshal(r.b[r.off+1:])
	if err != nil {
		r.failf("cold message: %v", err)
		return nil
	}
	r.off = len(r.b)
	return msg
}

func decodeHot(r *reader) any {
	switch tag := r.byte(); tag {
	case tagGroupSearch:
		return decodeGroupSearch(r)
	case tagGroupSearchResult:
		return decodeGroupSearchResult(r)
	case tagGroupSearchBatch:
		m := GroupSearchBatch{Group: r.int()}
		if n := r.count(2); n > 0 {
			m.Items = make([]GroupSearch, n)
			for i := range m.Items {
				m.Items[i] = decodeGroupSearch(r)
			}
		}
		if n := r.count(4); n > 0 {
			m.TCs = make([]obs.TraceContext, n)
			for i := range m.TCs {
				m.TCs[i] = r.traceContext()
			}
		}
		return m
	case tagGroupSearchBatchResult:
		var m GroupSearchBatchResult
		if n := r.count(5); n > 0 {
			m.Items = make([]GroupSearchResult, n)
			for i := range m.Items {
				m.Items[i] = decodeGroupSearchResult(r)
			}
		}
		m.Errs = readSlice(r, r.str)
		return m
	case tagLocalSearch:
		return LocalSearch{
			Query:     r.bytes(),
			Offsets:   r.ints(),
			WindowLen: r.int(),
			Params:    decodeParams(r),
		}
	case tagLocalSearchResult:
		return LocalSearchResult{
			Anchors:  r.anchors(),
			KNNNs:    r.int64(),
			ExtendNs: r.int64(),
			Visits:   r.int64(),
			Spans:    r.spans(),
		}
	case tagIndexBlocks:
		var m IndexBlocks
		if n := r.count(5); n > 0 {
			m.Blocks = make([]Block, n)
			for i := range m.Blocks {
				m.Blocks[i] = Block{
					Seq:     seq.ID(r.uvarint()),
					Start:   r.int(),
					Content: r.bytes(),
					Context: r.bytes(),
					CtxOff:  r.int(),
				}
			}
		}
		if n := r.count(4); n > 0 {
			m.Runs = make([]Run, n)
			for i := range m.Runs {
				m.Runs[i] = r.run()
			}
		}
		m.Stage = r.bool()
		return m
	case tagIndexBlocksAck:
		return IndexBlocksAck{Accepted: r.int()}
	case tagFetchRegion:
		return FetchRegion{Seq: seq.ID(r.uvarint()), Start: r.int(), End: r.int()}
	case tagRegion:
		return Region{Seq: seq.ID(r.uvarint()), Start: r.int(), Data: r.bytes(), Len: r.int()}
	case tagPushBlocks:
		return PushBlocks{Target: r.str(), Refs: readSlice(r, r.uvarint)}
	case tagPushBlocksAck:
		return PushBlocksAck{Pushed: r.int(), Missing: r.int()}
	case tagPushSequences:
		return PushSequences{Target: r.str(), IDs: readSlice(r, r.id)}
	case tagPushSequencesAck:
		return PushSequencesAck{Pushed: r.int(), Missing: r.int()}
	case tagSketchFetch:
		return SketchFetch{}
	case tagSketchFetchResult:
		return SketchFetchResult{Node: r.str(), Sketch: r.bytes()}
	case tagBuildIndex:
		return BuildIndex{}
	case tagBuildIndexAck:
		return BuildIndexAck{Items: r.int()}
	case tagStoreSequences:
		// Data is copied, not viewed: the node's sequence store keeps it
		// for good, and a view would pin the whole frame with it.
		return StoreSequences{
			IDs:   readSlice(r, r.id),
			Names: readSlice(r, r.str),
			Data:  readSlice(r, func() []byte { return bytes.Clone(r.bytes()) }),
		}
	case tagStoreSequencesAck:
		return StoreSequencesAck{}
	default:
		r.failf("unknown message tag 0x%02x", tag)
		return nil
	}
}

// AppendRequest appends a request payload: the trace context, then the
// AppendMessage encoding of msg. On error dst is returned unchanged.
func AppendRequest(dst []byte, tc obs.TraceContext, msg any) ([]byte, error) {
	b, err := AppendMessage(AppendTraceContext(dst, tc), msg)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// DecodeRequest decodes an AppendRequest payload. The message may alias data.
func DecodeRequest(data []byte) (obs.TraceContext, any, error) {
	r := reader{b: data}
	tc := r.traceContext()
	msg := decodeMessage(&r)
	if err := r.done("request"); err != nil {
		return obs.TraceContext{}, nil, err
	}
	return tc, msg, nil
}

// AppendErrorResponse appends an application-level error response. A
// successful response is the AppendMessage encoding of its message.
func AppendErrorResponse(dst []byte, errMsg string) []byte {
	dst = append(dst, tagError)
	return appendString(dst, errMsg)
}

// DecodeResponse decodes a response payload into either a message or a
// remote error string. The message may alias data.
func DecodeResponse(data []byte) (msg any, errMsg string, err error) {
	r := reader{b: data}
	if len(data) > 0 && data[0] == tagError {
		r.off = 1
		errMsg = r.str()
	} else {
		msg = decodeMessage(&r)
	}
	if err := r.done("response"); err != nil {
		return nil, "", err
	}
	return msg, errMsg, nil
}

// AppendTraceContext appends a trace context (three varints + sampled flag).
// The common zero context costs four bytes.
func AppendTraceContext(dst []byte, tc obs.TraceContext) []byte {
	dst = appendUvarint(dst, tc.TraceHi)
	dst = appendUvarint(dst, tc.TraceLo)
	dst = appendUvarint(dst, tc.SpanID)
	return append(dst, boolByte(tc.Sampled))
}

// ---- per-type bodies shared between standalone and batched encodings ----

func appendGroupSearch(dst []byte, m *GroupSearch) []byte {
	dst = appendInt(dst, m.Group)
	dst = appendBytes(dst, m.Query)
	dst = appendInts(dst, m.Offsets)
	dst = appendInt(dst, m.WindowLen)
	return appendParams(dst, &m.Params)
}

func decodeGroupSearch(r *reader) GroupSearch {
	return GroupSearch{
		Group:     r.int(),
		Query:     r.bytes(),
		Offsets:   r.ints(),
		WindowLen: r.int(),
		Params:    decodeParams(r),
	}
}

func appendGroupSearchResult(dst []byte, m *GroupSearchResult) []byte {
	dst = appendAnchors(dst, m.Anchors)
	dst = appendInt64(dst, m.KNNNs)
	dst = appendInt64(dst, m.ExtendNs)
	dst = appendInt64(dst, m.Visits)
	dst = appendInt64(dst, m.MergeNs)
	return appendSpans(dst, m.Spans)
}

func decodeGroupSearchResult(r *reader) GroupSearchResult {
	return GroupSearchResult{
		Anchors:  r.anchors(),
		KNNNs:    r.int64(),
		ExtendNs: r.int64(),
		Visits:   r.int64(),
		MergeNs:  r.int64(),
		Spans:    r.spans(),
	}
}

func appendParams(dst []byte, p *Params) []byte {
	dst = appendInt(dst, p.Step)
	dst = appendInt(dst, p.Neighbors)
	dst = appendFloat(dst, p.Identity)
	dst = appendFloat(dst, p.CScore)
	dst = appendString(dst, p.Matrix)
	dst = appendInt(dst, p.GappedS)
	dst = appendInt(dst, p.Band)
	dst = appendFloat(dst, p.MaxE)
	var flags byte
	if p.BothStrands {
		flags |= 1
	}
	if p.Mask {
		flags |= 2
	}
	return append(dst, flags)
}

func decodeParams(r *reader) Params {
	p := Params{
		Step:      r.int(),
		Neighbors: r.int(),
		Identity:  r.float(),
		CScore:    r.float(),
		Matrix:    r.matrix(),
		GappedS:   r.int(),
		Band:      r.int(),
		MaxE:      r.float(),
	}
	flags := r.byte()
	p.BothStrands = flags&1 != 0
	p.Mask = flags&2 != 0
	return p
}

func appendAnchors(dst []byte, as []Anchor) []byte {
	dst = appendUvarint(dst, uint64(len(as)))
	for i := range as {
		a := &as[i]
		dst = appendUvarint(dst, uint64(a.Seq))
		dst = appendInt(dst, a.QStart)
		dst = appendInt(dst, a.QEnd)
		dst = appendInt(dst, a.SStart)
		dst = appendInt(dst, a.SEnd)
		dst = appendInt(dst, a.Score)
	}
	return dst
}

// appendRun encodes a run's keys as varint deltas from the previous key
// (the first from 0): ascending keys a few residues apart take a byte each.
func appendRun(dst []byte, run *Run) []byte {
	dst = appendUvarint(dst, uint64(run.Seq))
	dst = appendInt(dst, run.Start)
	dst = appendBytes(dst, run.Residues)
	dst = appendUvarint(dst, uint64(len(run.Keys)))
	prev := 0
	for _, k := range run.Keys {
		dst = appendInt(dst, k-prev)
		prev = k
	}
	return dst
}

// appendSpans encodes the rare tracing payload as a self-contained gob
// blob: spans ride only on sampled queries, and SpanSnapshot is a recursive
// tree gob already handles. A zero-length blob means no spans.
func appendSpans(dst []byte, spans []obs.SpanSnapshot) []byte {
	if len(spans) == 0 {
		return appendUvarint(dst, 0)
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(spans); err != nil {
		// SpanSnapshot is plain exported data; gob cannot fail on it. Drop
		// spans rather than corrupt the frame if it somehow does.
		return appendUvarint(dst, 0)
	}
	dst = appendUvarint(dst, uint64(buf.Len()))
	return append(dst, buf.Bytes()...)
}

// ---- primitive encoders ----

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }
func appendInt(dst []byte, v int) []byte        { return binary.AppendVarint(dst, int64(v)) }
func appendInt64(dst []byte, v int64) []byte    { return binary.AppendVarint(dst, v) }

func appendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBytes(dst, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendID(dst []byte, id seq.ID) []byte { return binary.AppendUvarint(dst, uint64(id)) }

// appendSlice appends a length-prefixed slice, one element at a time.
func appendSlice[T any](dst []byte, vs []T, elem func([]byte, T) []byte) []byte {
	dst = appendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = elem(dst, v)
	}
	return dst
}

func appendInts(dst []byte, vs []int) []byte {
	dst = appendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendInt(dst, v)
	}
	return dst
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ---- decoder ----

// reader is a sticky-error cursor over a binary payload. Every accessor is
// safe after a failure (it returns zero values), so decode functions read
// fields unconditionally and check err once at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: codec: "+format+" at offset %d", append(args, r.off)...)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

// done returns the first decode error, or an error for input left over
// after a complete value (what names the value).
func (r *reader) done(what string) error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("wire: codec: %d trailing bytes after %s", len(r.b)-r.off, what)
	}
	return r.err
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.failf("truncated byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) bool() bool { return r.byte() != 0 }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.failf("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) int64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.failf("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) int() int { return int(r.int64()) }

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.failf("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// count reads a slice length and bounds it by the bytes remaining: each
// element of the pending slice occupies at least min bytes, so a count that
// could not possibly fit is rejected before any allocation (a corrupt or
// adversarial length cannot force a huge make).
func (r *reader) count(min int) int {
	v := r.uvarint()
	if r.err != nil || v == 0 {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(r.remaining())/uint64(min) {
		r.failf("slice length %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

// bytes returns a zero-copy view of a length-prefixed byte string. A
// zero-length string decodes as nil, matching gob's empty-slice convention.
func (r *reader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.failf("byte string length %d exceeds remaining input", n)
		return nil
	}
	end := r.off + int(n)
	v := r.b[r.off:end:end]
	r.off = end
	return v
}

func (r *reader) str() string { return string(r.bytes()) }

// matrix decodes Params.Matrix, interning the scoring matrix names the
// repository ships so the decode hot path does not allocate a string per
// request.
func (r *reader) matrix() string {
	b := r.bytes()
	switch string(b) {
	case "BLOSUM62":
		return "BLOSUM62"
	case "PAM250":
		return "PAM250"
	case "DNA":
		return "DNA"
	}
	return string(b)
}

func (r *reader) ints() []int {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.int()
	}
	return out
}

func (r *reader) id() seq.ID { return seq.ID(r.uvarint()) }

// readSlice reads an appendSlice encoding whose elements take at least one
// byte each; an empty slice decodes as nil, like gob.
func readSlice[T any](r *reader, elem func() T) []T {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (r *reader) anchors() []Anchor {
	n := r.count(6)
	if n == 0 {
		return nil
	}
	out := make([]Anchor, n)
	for i := range out {
		out[i] = Anchor{
			Seq:    seq.ID(r.uvarint()),
			QStart: r.int(),
			QEnd:   r.int(),
			SStart: r.int(),
			SEnd:   r.int(),
			Score:  r.int(),
		}
	}
	return out
}

func (r *reader) run() Run {
	run := Run{Seq: seq.ID(r.uvarint()), Start: r.int(), Residues: r.bytes()}
	if n := r.count(1); n > 0 {
		run.Keys = make([]int, n)
		prev := 0
		for i := range run.Keys {
			prev += r.int()
			run.Keys[i] = prev
		}
	}
	return run
}

func (r *reader) traceContext() obs.TraceContext {
	return obs.TraceContext{
		TraceHi: r.uvarint(),
		TraceLo: r.uvarint(),
		SpanID:  r.uvarint(),
		Sampled: r.bool(),
	}
}

func (r *reader) spans() []obs.SpanSnapshot {
	blob := r.bytes()
	if len(blob) == 0 {
		return nil
	}
	var spans []obs.SpanSnapshot
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&spans); err != nil {
		r.failf("span blob: %v", err)
		return nil
	}
	return spans
}
