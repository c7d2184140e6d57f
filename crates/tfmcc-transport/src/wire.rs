//! Binary wire format for TFMCC messages.
//!
//! The format is a straightforward fixed-layout encoding (network byte
//! order) with a one-byte message type and a one-byte version, sized so that
//! a data header fits comfortably in front of application payload inside a
//! single UDP datagram.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use tfmcc_proto::packets::{DataPacket, FeedbackPacket, ReceiverId, RttEcho, SuppressionEcho};

/// Wire protocol version.
pub const WIRE_VERSION: u8 = 1;

const TYPE_DATA: u8 = 1;
const TYPE_FEEDBACK: u8 = 2;

/// A decoded TFMCC message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// Data-packet header (application payload follows it in the datagram).
    Data(DataPacket),
    /// Receiver report.
    Feedback(FeedbackPacket),
}

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The datagram is shorter than the fixed header.
    Truncated,
    /// Unknown wire version.
    BadVersion(u8),
    /// Unknown message type byte.
    BadType(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "datagram too short"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message into a datagram payload.
pub fn encode_message(msg: &WireMessage) -> Bytes {
    let mut buf = BytesMut::with_capacity(128);
    buf.put_u8(WIRE_VERSION);
    match msg {
        WireMessage::Data(d) => {
            buf.put_u8(TYPE_DATA);
            buf.put_u64(d.seqno);
            buf.put_f64(d.timestamp);
            buf.put_f64(d.current_rate);
            buf.put_f64(d.max_rtt);
            buf.put_u64(d.feedback_round);
            buf.put_u8(u8::from(d.slowstart));
            put_opt_u64(&mut buf, d.clr.map(|c| c.0));
            match &d.rtt_echo {
                Some(e) => {
                    buf.put_u8(1);
                    buf.put_u64(e.receiver.0);
                    buf.put_f64(e.echo_timestamp);
                    buf.put_f64(e.echo_delay);
                }
                None => buf.put_u8(0),
            }
            match &d.suppression {
                Some(s) => {
                    buf.put_u8(1);
                    buf.put_u64(s.receiver.0);
                    buf.put_f64(s.rate);
                }
                None => buf.put_u8(0),
            }
            buf.put_u32(d.size);
        }
        WireMessage::Feedback(fb) => {
            buf.put_u8(TYPE_FEEDBACK);
            buf.put_u64(fb.receiver.0);
            buf.put_f64(fb.timestamp);
            buf.put_f64(fb.echo_timestamp);
            buf.put_f64(fb.echo_delay);
            buf.put_f64(if fb.calculated_rate.is_finite() {
                fb.calculated_rate
            } else {
                -1.0
            });
            buf.put_f64(fb.loss_event_rate);
            buf.put_f64(fb.receive_rate);
            buf.put_f64(fb.rtt);
            buf.put_u8(u8::from(fb.has_rtt_measurement));
            buf.put_u64(fb.feedback_round);
            buf.put_u8(u8::from(fb.leaving));
        }
    }
    buf.freeze()
}

fn put_opt_u64(buf: &mut BytesMut, v: Option<u64>) {
    match v {
        Some(x) => {
            buf.put_u8(1);
            buf.put_u64(x);
        }
        None => buf.put_u8(0),
    }
}

/// Decodes a datagram payload.
pub fn decode_message(mut data: &[u8]) -> Result<WireMessage, WireError> {
    if data.len() < 2 {
        return Err(WireError::Truncated);
    }
    let version = data.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let msg_type = data.get_u8();
    match msg_type {
        TYPE_DATA => {
            // Fixed part: 8+8+8+8+8+1 = 41, plus option tags handled below.
            if data.remaining() < 41 {
                return Err(WireError::Truncated);
            }
            let seqno = data.get_u64();
            let timestamp = data.get_f64();
            let current_rate = data.get_f64();
            let max_rtt = data.get_f64();
            let feedback_round = data.get_u64();
            let slowstart = data.get_u8() != 0;
            let clr = get_opt_u64(&mut data)?.map(ReceiverId);
            let rtt_echo = {
                if data.remaining() < 1 {
                    return Err(WireError::Truncated);
                }
                if data.get_u8() == 1 {
                    if data.remaining() < 24 {
                        return Err(WireError::Truncated);
                    }
                    Some(RttEcho {
                        receiver: ReceiverId(data.get_u64()),
                        echo_timestamp: data.get_f64(),
                        echo_delay: data.get_f64(),
                    })
                } else {
                    None
                }
            };
            let suppression = {
                if data.remaining() < 1 {
                    return Err(WireError::Truncated);
                }
                if data.get_u8() == 1 {
                    if data.remaining() < 16 {
                        return Err(WireError::Truncated);
                    }
                    Some(SuppressionEcho {
                        receiver: ReceiverId(data.get_u64()),
                        rate: data.get_f64(),
                    })
                } else {
                    None
                }
            };
            if data.remaining() < 4 {
                return Err(WireError::Truncated);
            }
            let size = data.get_u32();
            Ok(WireMessage::Data(DataPacket {
                seqno,
                timestamp,
                current_rate,
                max_rtt,
                feedback_round,
                slowstart,
                clr,
                rtt_echo,
                suppression,
                size,
            }))
        }
        TYPE_FEEDBACK => {
            if data.remaining() < 8 * 8 + 2 + 8 {
                return Err(WireError::Truncated);
            }
            let receiver = ReceiverId(data.get_u64());
            let timestamp = data.get_f64();
            let echo_timestamp = data.get_f64();
            let echo_delay = data.get_f64();
            let raw_rate = data.get_f64();
            let calculated_rate = if raw_rate < 0.0 {
                f64::INFINITY
            } else {
                raw_rate
            };
            let loss_event_rate = data.get_f64();
            let receive_rate = data.get_f64();
            let rtt = data.get_f64();
            let has_rtt_measurement = data.get_u8() != 0;
            let feedback_round = data.get_u64();
            let leaving = data.get_u8() != 0;
            Ok(WireMessage::Feedback(FeedbackPacket {
                receiver,
                timestamp,
                echo_timestamp,
                echo_delay,
                calculated_rate,
                loss_event_rate,
                receive_rate,
                rtt,
                has_rtt_measurement,
                feedback_round,
                leaving,
            }))
        }
        other => Err(WireError::BadType(other)),
    }
}

fn get_opt_u64(data: &mut &[u8]) -> Result<Option<u64>, WireError> {
    if data.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    if data.get_u8() == 1 {
        if data.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        Ok(Some(data.get_u64()))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_data() -> DataPacket {
        DataPacket {
            seqno: 99,
            timestamp: 12.5,
            current_rate: 200_000.0,
            max_rtt: 0.25,
            feedback_round: 7,
            slowstart: true,
            clr: Some(ReceiverId(3)),
            rtt_echo: Some(RttEcho {
                receiver: ReceiverId(3),
                echo_timestamp: 11.0,
                echo_delay: 0.004,
            }),
            suppression: Some(SuppressionEcho {
                receiver: ReceiverId(5),
                rate: 80_000.0,
            }),
            size: 1000,
        }
    }

    fn sample_feedback() -> FeedbackPacket {
        FeedbackPacket {
            receiver: ReceiverId(11),
            timestamp: 5.5,
            echo_timestamp: 5.2,
            echo_delay: 0.001,
            calculated_rate: 90_000.0,
            loss_event_rate: 0.02,
            receive_rate: 110_000.0,
            rtt: 0.06,
            has_rtt_measurement: true,
            feedback_round: 7,
            leaving: false,
        }
    }

    #[test]
    fn data_round_trip() {
        let msg = WireMessage::Data(sample_data());
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn data_round_trip_without_options() {
        let mut d = sample_data();
        d.clr = None;
        d.rtt_echo = None;
        d.suppression = None;
        let msg = WireMessage::Data(d);
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn feedback_round_trip_including_infinite_rate() {
        let mut fb = sample_feedback();
        fb.calculated_rate = f64::INFINITY;
        let msg = WireMessage::Feedback(fb);
        let bytes = encode_message(&msg);
        assert_eq!(decode_message(&bytes).unwrap(), msg);
    }

    #[test]
    fn truncated_and_garbage_inputs_are_rejected() {
        let bytes = encode_message(&WireMessage::Data(sample_data()));
        for len in 0..bytes.len() {
            assert!(
                decode_message(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
        assert_eq!(decode_message(&[9, 1, 0, 0]), Err(WireError::BadVersion(9)));
        assert_eq!(decode_message(&[1, 77, 0, 0]), Err(WireError::BadType(77)));
    }

    proptest! {
        #[test]
        fn feedback_encoding_round_trips(
            receiver in 0u64..1_000_000,
            timestamp in 0.0f64..1e6,
            echo_timestamp in 0.0f64..1e6,
            echo_delay in 0.0f64..10.0,
            rate in 1.0f64..1e9,
            loss in 0.0f64..1.0,
            recv_rate in 0.0f64..1e9,
            rtt in 0.0001f64..10.0,
            has_rtt in any::<bool>(),
            round in 0u64..1_000_000,
            leaving in any::<bool>(),
        ) {
            let fb = FeedbackPacket {
                receiver: ReceiverId(receiver),
                timestamp,
                echo_timestamp,
                echo_delay,
                calculated_rate: rate,
                loss_event_rate: loss,
                receive_rate: recv_rate,
                rtt,
                has_rtt_measurement: has_rtt,
                feedback_round: round,
                leaving,
            };
            let msg = WireMessage::Feedback(fb);
            prop_assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        }

        #[test]
        fn data_encoding_round_trips(
            seqno in 0u64..u64::MAX / 2,
            timestamp in 0.0f64..1e6,
            rate in 1.0f64..1e9,
            max_rtt in 0.001f64..10.0,
            round in 0u64..1_000_000,
            slowstart in any::<bool>(),
            clr in proptest::option::of(0u64..1000),
            size in 1u32..65_000,
        ) {
            let d = DataPacket {
                seqno,
                timestamp,
                current_rate: rate,
                max_rtt,
                feedback_round: round,
                slowstart,
                clr: clr.map(ReceiverId),
                rtt_echo: None,
                suppression: None,
                size,
            };
            let msg = WireMessage::Data(d);
            prop_assert_eq!(decode_message(&encode_message(&msg)).unwrap(), msg);
        }

        /// Hostile input: arbitrary bytes (empty, truncated, random version
        /// and type tags, random option flags) decode to `Ok` or `Err` and
        /// never panic.  Half the cases get a valid version and a type tag
        /// in 0..4 (two known, two unknown), so the parser also runs past
        /// its header checks.
        #[test]
        fn decode_is_total_over_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..160),
            valid_version in any::<bool>(),
            tag in 0u8..4,
        ) {
            let mut datagram = bytes;
            if valid_version && datagram.len() >= 2 {
                datagram[0] = WIRE_VERSION;
                datagram[1] = tag;
            }
            match decode_message(&datagram) {
                Ok(msg) => {
                    // The decoder read no more than it was given, and what
                    // it produced encodes to something it accepts again.
                    let reencoded = encode_message(&msg);
                    prop_assert!(reencoded.len() <= datagram.len());
                    prop_assert!(decode_message(&reencoded).is_ok());
                }
                Err(WireError::Truncated) => prop_assert!(
                    datagram.len() < 2
                        || (datagram[0] == WIRE_VERSION
                            && matches!(datagram[1], TYPE_DATA | TYPE_FEEDBACK))
                ),
                Err(WireError::BadVersion(v)) => prop_assert_eq!(v, datagram[0]),
                Err(WireError::BadType(t)) => prop_assert_eq!(t, datagram[1]),
            }
        }
    }
}
