package wire

import (
	"encoding/binary"
	"fmt"
)

// ReliableProtocolVersion is the first revision whose peers speak the
// at-least-once delivery layer: SeqEvent envelopes, cumulative Ack frames,
// Retransmit requests and Lost notices. A publisher never sends any of
// them to an older peer, and a v4 subscriber on a v5 publisher simply gets
// the best-effort path it always had — revision 5 is additive.
const ReliableProtocolVersion uint32 = 5

// Reliability values carried in the Subscribe handshake (protocol revision
// 5). The zero value is best-effort, so legacy handshakes — which encode
// nothing here — decode to the exact behaviour they had before.
const (
	// ReliabilityBestEffort requests the classic fire-and-forget channel:
	// no sequence envelopes, no replay ring, no acks.
	ReliabilityBestEffort uint32 = 0
	// ReliabilityAtLeastOnce requests delivery-sequenced events with
	// publisher-side replay and subscriber-side dedup: every sequenced
	// event is delivered at least once, or its loss is explicitly
	// declared with a Lost notice — never silently dropped.
	ReliabilityAtLeastOnce uint32 = 1
)

// Ack is the cumulative delivery acknowledgement (protocol revision 5):
// the subscriber has durably received every sequenced event with delivery
// seq <= Seq. The publisher releases replay-ring entries up to it.
// Subscribers send standalone Acks every few delivered events and
// piggyback the same value on their idle heartbeats (Heartbeat.AckSeq), so
// the ring drains even on a quiet channel.
type Ack struct {
	// Seq is the highest contiguously received delivery sequence number.
	Seq uint64
}

// Retransmit asks the publisher to replay the sequenced events in
// [From, To] (inclusive) from its replay ring — the subscriber observed a
// gap below a delivered seq. Ranges the ring has evicted come back as a
// Lost notice instead of frames.
type Retransmit struct {
	// From is the first missing delivery sequence number.
	From uint64
	// To is the last missing delivery sequence number (>= From).
	To uint64
}

// Lost declares that the sequenced events in [From, To] (inclusive) are
// unrecoverable: the publisher's replay ring evicted them before the
// subscriber could repair the gap. The subscriber advances past the range
// and accounts every event in it that it never saw as DataLoss — loss is
// loud and counted, never silent.
type Lost struct {
	// From is the first unrecoverable delivery sequence number.
	From uint64
	// To is the last unrecoverable delivery sequence number (>= From).
	To uint64
}

// StreamStart announces the delivery stream's epoch (protocol revision 5):
// the publisher sends it as the first frame of every at-least-once
// subscription, before any sequenced event. An epoch identifies one
// publisher-side sequence numbering; a resuming subscriber whose stored
// epoch differs knows its resume point belongs to a dead stream (publisher
// restart, evicted orphan, duplicate-triple fresh state) and must reset its
// dedup state instead of silently discarding the new stream's events as
// duplicates.
type StreamStart struct {
	// Epoch identifies the stream's sequence numbering. Never 0 on the
	// wire — 0 is the subscriber-side "no stream adopted yet" sentinel.
	Epoch uint64
}

// SeqEvent is the delivery-sequencing envelope (protocol revision 5): one
// complete event frame (a Marshal of MsgRaw or MsgContinuation — or, as a
// batch entry, exactly that) stamped with the subscription's monotonic
// delivery sequence number. The envelope is applied per subscription at
// send time, so class-shared frame bytes stay identical across members and
// the seq lives outside the shared payload. Payload aliases the input
// frame on decode; it stays valid only as long as the input does.
type SeqEvent struct {
	// Seq is the per-subscription delivery sequence number (first event =
	// 1; 0 never appears on the wire).
	Seq uint64
	// Payload is the enveloped event frame, tag byte included.
	Payload []byte
}

// SeqEventOverhead is the envelope cost per wrapped frame: 1 tag byte + 8
// sequence bytes. Senders use it to pre-size wrapping buffers.
const SeqEventOverhead = 9

// AppendSeqEvent appends one SeqEvent envelope wrapping payload to dst,
// returning the extended slice. It is the allocation-free fast path of
// Marshal(&SeqEvent{...}) for the send pipeline, which wraps class-shared
// frame bytes into a recycled per-subscription buffer.
func AppendSeqEvent(dst []byte, seq uint64, payload []byte) []byte {
	dst = append(dst, byte(MsgSeqEvent))
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], seq)
	dst = append(dst, u[:]...)
	return append(dst, payload...)
}

// unmarshalSeqEvent decodes a SeqEvent payload without copying: the
// enveloped frame aliases the input.
func unmarshalSeqEvent(data []byte) (*SeqEvent, error) {
	d := Decoder{data: data}
	seq, err := d.readU64()
	if err != nil {
		return nil, fmt.Errorf("wire: seq envelope header truncated")
	}
	payload, _ := d.take(d.Remaining())
	if len(payload) == 0 {
		return nil, fmt.Errorf("wire: seq envelope is empty")
	}
	if seq == 0 {
		return nil, fmt.Errorf("wire: seq envelope with zero sequence")
	}
	return &SeqEvent{Seq: seq, Payload: payload}, nil
}
