// Journal of in-flight link messages, the piece that makes transport
// state checkpointable: scheduled delivery events are type-erased
// closures the snapshot cannot serialize, so while checkpointing is
// enabled every send records (a) a service-encoded payload recipe —
// enough to rebuild the destination handler call — staged just before
// the send, and (b) the delivery event's fire time and ticket,
// committed by the transport right after scheduling. At restore the
// service replays each entry: it rebuilds the payload closure from the
// recipe and re-inserts the delivery at its original canonical
// position.
//
// Threading: one slot per shard; every call except prune/collect/
// restore_entry touches only the calling shard's slot (sends happen on
// the sender's shard). prune/collect/restore_entry run single-threaded
// between windows.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/types.hpp"

namespace ppo::privacylink {

class DeliveryJournal {
 public:
  struct Entry {
    std::string payload;  // service-encoded rebuild recipe (opaque here)
    graph::NodeId from = 0;
    graph::NodeId to = 0;
    double fire_time = 0.0;
    sim::EventTicket ticket;
    bool dropped = false;  // fault-dropped: delivery carries no payload
    bool faulty = false;   // wrapped by FaultyTransport's delivery counter
  };

  /// `slots`: shard count. `slot_of` resolves the calling context's
  /// slot. Deliveries at exactly t == now count as pending: run_until
  /// is exclusive of its end time.
  DeliveryJournal(std::size_t slots, std::function<std::size_t()> slot_of)
      : slots_(slots == 0 ? 1 : slots), slot_of_(std::move(slot_of)) {}

  /// Service side, immediately before LinkTransport::send: stages the
  /// payload recipe the transport's commit will attach to.
  void stage(std::string payload, graph::NodeId from, graph::NodeId to) {
    Slot& s = slot();
    s.staged = true;
    s.pending.payload = std::move(payload);
    s.pending.from = from;
    s.pending.to = to;
  }

  /// Transport side, right after scheduling a delivery event: records
  /// the event's position. No-op when nothing is staged (sends that do
  /// not originate at the journal-aware seam). Copies rather than
  /// consumes the staged recipe so duplicated copies each commit.
  void commit(double fire_time, sim::EventTicket ticket) {
    Slot& s = slot();
    if (!s.staged) return;
    Entry e = s.pending;
    e.fire_time = fire_time;
    e.ticket = ticket;
    e.dropped = false;
    e.faulty = false;
    s.entries.push_back(std::move(e));
  }

  /// Fault-wrapper side: annotates the entry the inner transport just
  /// committed on this slot.
  void mark_last(bool dropped, bool faulty) {
    Slot& s = slot();
    if (!s.staged || s.entries.empty()) return;
    s.entries.back().dropped = dropped;
    s.entries.back().faulty = faulty;
  }

  /// Service side, after LinkTransport::send returns: closes the
  /// staging window (a refused send leaves no entry behind).
  void finish_send() { slot().staged = false; }

  /// Drops entries whose delivery already executed. Single-threaded.
  void prune(double now) {
    for (Slot& s : slots_)
      std::erase_if(s.entries,
                    [now](const Entry& e) { return e.fire_time < now; });
  }

  /// Re-registers a restored entry so it survives into the next
  /// checkpoint. Single-threaded (restore path).
  void restore_entry(Entry e) { slots_[0].entries.push_back(std::move(e)); }

  /// All live entries with pending deliveries, in canonical
  /// (time, origin, seq) order. Single-threaded.
  std::vector<Entry> collect(double now) const {
    std::vector<Entry> out;
    for (const Slot& s : slots_)
      for (const Entry& e : s.entries)
        if (e.fire_time >= now) out.push_back(e);
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.fire_time != b.fire_time) return a.fire_time < b.fire_time;
      if (a.ticket.origin != b.ticket.origin)
        return a.ticket.origin < b.ticket.origin;
      return a.ticket.seq < b.ticket.seq;
    });
    return out;
  }

 private:
  struct Slot {
    bool staged = false;
    Entry pending;
    std::vector<Entry> entries;
  };

  Slot& slot() { return slots_[slot_of_ ? slot_of_() : 0]; }

  std::vector<Slot> slots_;
  std::function<std::size_t()> slot_of_;
};

}  // namespace ppo::privacylink
