// Package wire is the binary codec shared by every non-loopback
// transport: length-prefixed frames, varint-encoded batch headers, and
// a Codec[M] abstraction for algorithm payloads.
//
// # Wire format
//
// All integers are LEB128 varints: unsigned ("uvarint") for counts,
// identifiers, and sizes; zigzag-signed ("varint") for payload fields
// that may be negative. Multi-byte values have no fixed width and no
// endianness concerns.
//
// Frame — the unit written to a net.Conn:
//
//	frame     := length payload
//	length    := uvarint              // payload size in bytes, <= MaxFrame
//
// Batch — one (sender, receiver, superstep) shipment of envelopes; the
// TCP transport writes exactly one batch frame per peer per superstep,
// empty batches included, which is what lets a receiver detect that a
// superstep's input is complete, and follows it on the same connection
// with one row frame:
//
//	row        := bytes               // the sender's account of the
//	                                  // superstep, opaque to the transport
//
// The socket link (transport/node) fills it with the sender's core.Row
// — a flags byte below 0x80, superstep, messages, k link words, error
// text — so every machine receives all k rows with its inbox and rules
// the superstep itself; the in-process cluster's TCP transport ships it
// empty. A batch's first byte names its format
// (BatchV2 = 0x02, the only one; DecodeBatchAny rejects any other), and
// the layout exploits that a batch frame is already a per-(sender,
// receiver, superstep) unit carried by a connection that identifies
// both ends:
//
//	batchV2    := 0x02 superstep count              // empty batch
//	batchV2    := 0x02 superstep count run* words* payloadLen payload
//	superstep  := uvarint             // zero-based superstep index
//	count      := uvarint             // number of envelopes
//	run        := delta length        // From values, run-length encoded
//	delta      := varint              // zigzag delta vs previous run's From
//	                                  // (first run: vs the frame sender)
//	length     := uvarint             // envelopes sharing this From (>= 1);
//	                                  // run lengths sum to count
//	words      := uvarint             // one per envelope, in order
//	payloadLen := uvarint             // total bytes of the payload section
//	payload    := msg*                // Codec[M]-defined bytes, in order
//
// Three envelope fields never travel: the batch sender (implied by the
// connection the frame arrives on, supplied to the decoder as an
// argument), the per-envelope To (implied by the frame destination),
// and the per-envelope From (collapsed to one two-byte run in the
// common case where every envelope carries the sender's own From). The
// payload length prefix lets a decoder validate the section boundary
// and pre-size scratch before touching codec bytes. Empty batches —
// the "nothing for you this superstep" markers that dominate frame
// counts for sparse traffic — end right after count.
//
// The leading version, superstep and count are a header a receiver can
// hold a frame to on arrival without decoding an envelope (BatchHeader):
// every envelope costs at least its words byte, so a count beyond the
// bytes that follow is corruption, and a count that passes bounds the
// storage the batch decodes into (AppendDecodedBatch appends at the end
// of a caller-sized slice — the TCP transport's inbox slot).
//
// The envelope Words field travels on the wire even though the receiver
// could often recompute it, because the cost accounting in core treats
// it as authoritative: a transport must hand back exactly the word
// counts it was given.
//
// # Job-scoped frames
//
// A resident mesh executes many jobs over the same persistent
// connections (DESIGN.md "Job service"). Batch frames of such a mesh
// are job-scoped (a row frame, riding directly behind its batch, needs
// no header of its own): a job header sits where the batch version
// byte otherwise would, and the complete versioned batch follows
// unchanged —
//
//	jobbed     := 0x03 job batchV2
//	job        := uvarint             // job ID >= 1, assigned by the scheduler
//
// The header scopes, it does not re-encode: the batch travels
// byte-identically inside it. A reader attached for job J
// rejects a frame scoped to any other job (a straggler from a previous
// job, or a protocol bug) as an attributed error instead of decoding it
// into the wrong run; a single run (job 0) never emits the header and
// rejects it as an unknown version.
//
// A failing endpoint may ship one final frame on a data connection
// before closing it:
//
//	abort      := 0xFF superstep suspect
//	suspect    := uvarint             // MachineID the sender blames
//
// The abort precedes the connection's FIN in stream order, which is
// what lets a reader distinguish "this peer died" (bare EOF) from
// "this peer is tearing down because suspect died" — the basis of
// correct failure attribution across cascading teardowns (transport/tcp
// castBlame).
//
// # Arrival order
//
// A machine ships each peer's batch as soon as its compute finalises it
// (DESIGN.md "The superstep schedule"), so frames for superstep s
// arrive spread across the *whole* of superstep s rather than clustered
// after a barrier, and the relative arrival order of frames from
// different senders carries no information. The per-frame superstep
// field is therefore the only valid sequencing key — a decoder may
// assert that consecutive frames on one connection carry monotonically
// increasing superstep values (one batch per peer per superstep), but
// must never infer phase boundaries from inter-frame timing.
//
// # Payload codecs
//
// Codec[M] implementations live next to the message types they
// serialise: pagerank.WireCodec, dsort.WireCodec, conncomp.WireCodec,
// and triangle.WireCodec / triangle.BaselineWireCodec, each composed
// with routing.HopCodec when the algorithm routes through Valiant
// two-hop intermediates. Every codec has a round-trip property test in
// its home package.
package wire
