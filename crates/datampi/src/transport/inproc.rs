//! The in-process channel fabric, refactored behind [`Transport`].
//!
//! This is the original interconnect: every rank is a thread in this
//! process and a [`FrameSender`] is literally the destination rank's
//! bounded mailbox. There are no writer threads and no wire encoding,
//! so [`Endpoint::close`] reports zero wire bytes.

use crossbeam::channel::bounded;
use dmpi_common::Result;

use super::{Endpoint, FrameReceiver, FrameSender, Transport};

/// Fabric of bounded in-memory mailboxes, one per rank.
pub struct InProcTransport {
    ranks: usize,
    mailbox_capacity: usize,
}

impl InProcTransport {
    /// Sizes the fabric for `ranks` mailboxes of `mailbox_capacity`
    /// frames each; a sender blocks while its destination's mailbox is
    /// full (`comm`'s module docs argue why that cannot deadlock a job).
    pub fn new(ranks: usize, mailbox_capacity: usize) -> Self {
        InProcTransport {
            ranks,
            mailbox_capacity,
        }
    }
}

impl Transport for InProcTransport {
    fn open(&mut self) -> Result<Vec<Endpoint>> {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..self.ranks)
            .map(|_| bounded(self.mailbox_capacity.max(1)))
            .unzip();
        let senders: Vec<FrameSender> =
            senders.into_iter().map(FrameSender::from_channel).collect();
        Ok(receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| Endpoint::new(rank, senders.clone(), FrameReceiver::Direct(rx)))
            .collect())
    }
}

/// Test fixture: `ranks` mailboxes of `capacity` frames, built by
/// [`InProcTransport::open`] — the senders, and each rank's channel,
/// which a test may also drain without blocking.
#[cfg(test)]
pub(crate) fn mailboxes(
    ranks: usize,
    capacity: usize,
) -> (
    Vec<FrameSender>,
    Vec<crossbeam::channel::Receiver<crate::comm::Frame>>,
) {
    let mut endpoints = InProcTransport::new(ranks, capacity).open().unwrap();
    let senders = endpoints[0].senders();
    let receivers = endpoints
        .iter_mut()
        .map(|e| match e.take_receiver() {
            FrameReceiver::Direct(rx) => rx,
            FrameReceiver::Checked(_) => unreachable!("in-proc mailboxes are direct"),
        })
        .collect();
    (senders, receivers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Frame;
    use bytes::Bytes;

    #[test]
    fn endpoints_route_frames_and_report_no_wire_traffic() {
        let mut fabric = InProcTransport::new(2, 8);
        let mut eps = fabric.open().unwrap();
        let mut ep1 = eps.pop().unwrap();
        let mut ep0 = eps.pop().unwrap();
        assert_eq!(ep0.rank(), 0);
        assert_eq!(ep1.rank(), 1);

        let senders = ep0.senders();
        assert!(senders[1].send(Frame::data(0, 3, Bytes::from_static(b"xy"))));
        let rx1 = ep1.take_receiver();
        match rx1.recv().unwrap() {
            Some(Frame::Data {
                from_rank, o_task, ..
            }) => {
                assert_eq!(from_rank, 0);
                assert_eq!(o_task, 3);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Teardown: once every sender handle is gone, receivers see end
        // of stream, and close reports no wire traffic.
        let rx0 = ep0.take_receiver();
        drop(senders);
        drop(ep1.senders()); // ep1's own clones
        let stats = ep0.close();
        assert_eq!(stats, super::super::WireStats::default());
        drop(ep1);
        assert!(rx0.recv().unwrap().is_none());
    }
}
