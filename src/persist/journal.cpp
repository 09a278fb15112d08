#include "persist/journal.hpp"

#include <string>

#include "persist/bytes.hpp"

namespace aio::persist {

namespace {

enum RecordType : std::uint8_t {
    kHeaderRecord = 1,
    kOutcomeRecord = 2,
    kCheckpointRecord = 3,
};

void encodeHeader(ByteWriter& w, const CampaignHeader& header) {
    w.u8(kHeaderRecord);
    w.u32(header.formatVersion);
    w.u64(header.planDigest);
    w.u64(header.configDigest);
    for (const std::uint64_t word : header.initialRngState) {
        w.u64(word);
    }
    w.u64(header.taskCount);
    w.u64(header.probeCount);
    w.u32(header.checkpointInterval);
    w.u64(header.resumedAtOutcome);
}

CampaignHeader decodeHeader(ByteReader& r) {
    CampaignHeader header;
    header.formatVersion = r.u32();
    if (header.formatVersion != 1) {
        throw net::CorruptionError{"unsupported journal format version " +
                                   std::to_string(header.formatVersion)};
    }
    header.planDigest = r.u64();
    header.configDigest = r.u64();
    for (std::uint64_t& word : header.initialRngState) {
        word = r.u64();
    }
    header.taskCount = r.u64();
    header.probeCount = r.u64();
    header.checkpointInterval = r.u32();
    header.resumedAtOutcome = r.u64();
    return header;
}

void encodeOutcome(ByteWriter& w, const TaskOutcomeRecord& outcome) {
    w.u8(kOutcomeRecord);
    w.u64(outcome.taskIdx);
    w.u8(static_cast<std::uint8_t>(outcome.kind));
    w.u8(outcome.faultClass);
    w.f64(outcome.clockHour);
}

TaskOutcomeRecord decodeOutcome(ByteReader& r) {
    TaskOutcomeRecord outcome;
    outcome.taskIdx = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(TaskOutcomeKind::Abandoned)) {
        throw net::CorruptionError{"unknown task outcome kind " +
                                   std::to_string(kind)};
    }
    outcome.kind = static_cast<TaskOutcomeKind>(kind);
    outcome.faultClass = r.u8();
    outcome.clockHour = r.f64();
    return outcome;
}

void encodeResult(ByteWriter& w, const core::CampaignResult& result) {
    w.u64(result.ixpsDetected.size());
    for (const topo::IxpIndex ix : result.ixpsDetected) {
        w.u64(ix);
    }
    w.u64(result.asesObserved.size());
    for (const topo::AsIndex as : result.asesObserved) {
        w.u64(as);
    }
    w.i32(result.tracesLaunched);
    w.i32(result.tracesCompleted);
    const core::DegradationReport& rep = result.degradation;
    w.i32(rep.tasksPlanned);
    w.i32(rep.attempts);
    w.i32(rep.retries);
    w.i32(rep.reassigned);
    w.i32(rep.abandoned);
    w.i32(rep.completed);
    w.i32(rep.transientTimeouts);
    w.i32(rep.probesExhausted);
    w.f64(rep.completionRatio);
    w.f64(rep.coverageVsOracle);
    w.u64(rep.lossByFaultClass.size());
    for (const auto& [name, count] : rep.lossByFaultClass) {
        w.str(name);
        w.i32(count);
    }
}

core::CampaignResult decodeResult(ByteReader& r) {
    core::CampaignResult result;
    const std::uint64_t ixps = r.u64();
    for (std::uint64_t i = 0; i < ixps; ++i) {
        result.ixpsDetected.insert(result.ixpsDetected.end(),
                                   static_cast<topo::IxpIndex>(r.u64()));
    }
    const std::uint64_t ases = r.u64();
    for (std::uint64_t i = 0; i < ases; ++i) {
        result.asesObserved.insert(result.asesObserved.end(),
                                   static_cast<topo::AsIndex>(r.u64()));
    }
    result.tracesLaunched = r.i32();
    result.tracesCompleted = r.i32();
    core::DegradationReport& rep = result.degradation;
    rep.tasksPlanned = r.i32();
    rep.attempts = r.i32();
    rep.retries = r.i32();
    rep.reassigned = r.i32();
    rep.abandoned = r.i32();
    rep.completed = r.i32();
    rep.transientTimeouts = r.i32();
    rep.probesExhausted = r.i32();
    rep.completionRatio = r.f64();
    rep.coverageVsOracle = r.f64();
    const std::uint64_t losses = r.u64();
    for (std::uint64_t i = 0; i < losses; ++i) {
        std::string name = r.str();
        const std::int32_t count = r.i32();
        rep.lossByFaultClass.emplace(std::move(name), count);
    }
    return result;
}

void encodeCheckpoint(ByteWriter& w, const CampaignCheckpoint& cp) {
    w.u8(kCheckpointRecord);
    w.u64(cp.outcomesApplied);
    w.u64(cp.nextSeq);
    for (const std::uint64_t word : cp.rngState) {
        w.u64(word);
    }
    encodeResult(w, cp.result);
    w.u64(cp.assignments.size());
    for (const TaskAssignment& a : cp.assignments) {
        w.u64(a.probeIndex);
        w.u64(a.srcAs);
    }
    w.u64(cp.pending.size());
    for (const PendingTask& p : cp.pending) {
        w.f64(p.readyHour);
        w.u64(p.seq);
        w.u64(p.taskIdx);
        w.i32(p.attempt);
        w.i32(p.reassignments);
    }
    w.u64(cp.meters.size());
    for (const ProbeMeterState& m : cp.meters) {
        w.f64(m.peakMb);
        w.f64(m.offPeakMb);
        w.boolean(m.exhausted);
    }
}

CampaignCheckpoint decodeCheckpoint(ByteReader& r) {
    CampaignCheckpoint cp;
    cp.outcomesApplied = r.u64();
    cp.nextSeq = r.u64();
    for (std::uint64_t& word : cp.rngState) {
        word = r.u64();
    }
    cp.result = decodeResult(r);
    const std::uint64_t assignments = r.u64();
    cp.assignments.reserve(assignments);
    for (std::uint64_t i = 0; i < assignments; ++i) {
        TaskAssignment a;
        a.probeIndex = r.u64();
        a.srcAs = r.u64();
        cp.assignments.push_back(a);
    }
    const std::uint64_t pending = r.u64();
    cp.pending.reserve(pending);
    for (std::uint64_t i = 0; i < pending; ++i) {
        PendingTask p;
        p.readyHour = r.f64();
        p.seq = r.u64();
        p.taskIdx = r.u64();
        p.attempt = r.i32();
        p.reassignments = r.i32();
        cp.pending.push_back(p);
    }
    const std::uint64_t meters = r.u64();
    cp.meters.reserve(meters);
    for (std::uint64_t i = 0; i < meters; ++i) {
        ProbeMeterState m;
        m.peakMb = r.f64();
        m.offPeakMb = r.f64();
        m.exhausted = r.boolean();
        cp.meters.push_back(m);
    }
    return cp;
}

void requireDrained(const ByteReader& r, const char* what) {
    if (!r.atEnd()) {
        throw net::CorruptionError{
            std::string{what} + " record carries " +
            std::to_string(r.remaining()) + " trailing bytes"};
    }
}

} // namespace

/// One framed append + flush: the record is only "written" once it is
/// durable. Byte/latency accounting rides along when metrics are wired.
void CampaignJournal::appendRecord(std::span<const std::byte> payload) {
    const obs::ScopedTimer timer{metrics_, "journal.append_seconds"};
    const std::uint64_t before = writer_.bytesWritten();
    writer_.append(payload);
    sink_->flush();
    metrics_.add("journal.appends");
    metrics_.add("journal.flushes");
    metrics_.add("journal.bytes_written", writer_.bytesWritten() - before);
}

void CampaignJournal::writeHeader(const CampaignHeader& header) {
    AIO_EXPECTS(!headerWritten_, "journal header already written");
    ByteWriter w;
    encodeHeader(w, header);
    appendRecord(w.bytes());
    headerWritten_ = true;
}

void CampaignJournal::appendOutcome(const TaskOutcomeRecord& outcome) {
    AIO_EXPECTS(headerWritten_, "journal needs a header before records");
    ByteWriter w;
    encodeOutcome(w, outcome);
    appendRecord(w.bytes());
}

void CampaignJournal::appendCheckpoint(const CampaignCheckpoint& checkpoint) {
    AIO_EXPECTS(headerWritten_, "journal needs a header before records");
    const obs::ScopedTimer timer{metrics_, "journal.checkpoint_seconds"};
    ByteWriter w;
    encodeCheckpoint(w, checkpoint);
    appendRecord(w.bytes());
    metrics_.add("journal.checkpoints");
}

CampaignJournal::Replay
CampaignJournal::replay(std::span<const std::byte> bytes,
                        obs::Metrics metrics) {
    const obs::ScopedTimer timer{metrics, "journal.replay_seconds"};
    Replay out;
    RecordReader reader{bytes};
    while (const auto payload = reader.next()) {
        ByteReader r{*payload};
        const std::uint8_t type = r.u8();
        if (!out.header && type != kHeaderRecord) {
            throw net::CorruptionError{
                "journal does not start with a header record"};
        }
        switch (type) {
        case kHeaderRecord: {
            if (out.header) {
                throw net::CorruptionError{"duplicate journal header"};
            }
            out.header = decodeHeader(r);
            requireDrained(r, "header");
            break;
        }
        case kOutcomeRecord: {
            (void)decodeOutcome(r);
            requireDrained(r, "outcome");
            ++out.outcomeRecords;
            break;
        }
        case kCheckpointRecord: {
            CampaignCheckpoint cp = decodeCheckpoint(r);
            requireDrained(r, "checkpoint");
            // Write-ahead invariant: a checkpoint's cursor must equal the
            // journal's starting cursor plus the outcome records actually
            // present before it. A mismatch means records were dropped,
            // duplicated or spliced — resuming would replay the wrong
            // suffix, so refuse.
            const std::uint64_t expected =
                out.header->resumedAtOutcome + out.outcomeRecords;
            if (cp.outcomesApplied != expected) {
                throw net::CorruptionError{
                    "checkpoint cursor " +
                    std::to_string(cp.outcomesApplied) +
                    " contradicts the " + std::to_string(expected) +
                    " settlements journaled before it"};
            }
            out.checkpoint = std::move(cp);
            break;
        }
        default:
            throw net::CorruptionError{"unknown journal record type " +
                                       std::to_string(type)};
        }
    }
    out.tornTail = reader.tail() == TailStatus::Torn;
    metrics.add("journal.replay.records", out.outcomeRecords);
    metrics.add("journal.replay.checkpoints", out.checkpoint ? 1 : 0);
    metrics.add("journal.replay.torn_tails", out.tornTail ? 1 : 0);
    metrics.add("journal.replays");
    return out;
}

} // namespace aio::persist
