#include "exp/journal.hh"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <utility>

#include <unistd.h>

#include "check/fault_inject.hh"
#include "ckpt/snapshot.hh"
#include "common/logging.hh"

namespace s64v::exp
{

namespace
{

/** Record magic; its last character is the journal format version. */
constexpr std::string_view kMagic = "S64VJRN2";
/** Magic plus the u32 payload length; the u64 checksum follows. */
constexpr std::size_t kHeadBytes = kMagic.size() + 4;
constexpr std::size_t kTailBytes = 8;

/** SimResult flags, packed into one payload byte. @{ */
constexpr std::uint64_t kHitCycleCap = 1;
constexpr std::uint64_t kInterrupted = 2;
constexpr std::uint64_t kStoppedAtCheckpoint = 4;
/** @} */

/** Smallest encoding of a core (4 x u64) and a metric (empty name). */
constexpr std::size_t kCoreBytes = 32;
constexpr std::size_t kMinMetricBytes = 4 + 8;

void
putLe(std::string &out, std::uint64_t v, std::size_t n = 8)
{
    std::uint8_t b[8];
    ckpt::storeLe(b, v, n);
    out.append(reinterpret_cast<const char *>(b), n);
}

void
putStr(std::string &out, std::string_view s)
{
    putLe(out, s.size(), 4);
    out.append(s);
}

/**
 * Bounds-checked payload reader. Every read checks the bytes left
 * first. A short read, or a string length or table count that the
 * bytes left cannot back, marks the reader bad and yields zero or
 * empty from then on, so nothing is allocated from an unbacked length.
 */
class Decoder
{
  public:
    Decoder(const std::uint8_t *p, std::size_t n) : p_(p), left_(n) {}

    std::uint64_t
    le(std::size_t n = 8)
    {
        if (left_ < n) {
            fail();
            return 0;
        }
        const std::uint64_t v = ckpt::loadLe(p_, n);
        skip(n);
        return v;
    }

    double f64() { return std::bit_cast<double>(le()); }

    std::string
    str()
    {
        const std::uint64_t len = le(4);
        if (len > left_) {
            fail();
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p_), len);
        skip(len);
        return s;
    }

    /** A table count whose entries take at least @p min_bytes each. */
    std::uint64_t
    count(std::size_t min_bytes)
    {
        const std::uint64_t n = le(4);
        if (n > left_ / min_bytes) {
            fail();
            return 0;
        }
        return n;
    }

    /** Whether every read fit and the payload is used up exactly. */
    bool finished() const { return !bad_ && left_ == 0; }

  private:
    void
    skip(std::size_t n)
    {
        p_ += n;
        left_ -= n;
    }

    void
    fail()
    {
        bad_ = true;
        left_ = 0;
    }

    const std::uint8_t *p_;
    std::size_t left_;
    bool bad_ = false;
};

bool
decodePayload(const std::uint8_t *p, std::size_t n, JournalEntry &out)
{
    Decoder d(p, n);
    JournalEntry e;
    e.index = d.le();
    e.label = d.str();
    e.configHash = d.le();
    e.workloadHash = d.le();
    e.modelVersion = d.str();
    const std::uint64_t status = d.le(1);
    e.attempts = static_cast<std::uint32_t>(d.le(4));
    e.error = d.str();
    e.sim.cycles = d.le();
    e.sim.instructions = d.le();
    e.sim.measured = d.le();
    e.sim.ipc = d.f64();
    e.sim.warmupEndCycle = d.le();
    const std::uint64_t flags = d.le(1);
    e.sim.hitCycleCap = flags & kHitCycleCap;
    e.sim.interrupted = flags & kInterrupted;
    e.sim.stoppedAtCheckpoint = flags & kStoppedAtCheckpoint;
    e.sim.cores.resize(d.count(kCoreBytes));
    for (CoreResult &c : e.sim.cores) {
        c.committed = d.le();
        c.measured = d.le();
        c.lastCommitCycle = d.le();
        c.ipc = d.f64();
    }
    for (std::uint64_t m = d.count(kMinMetricBytes); m > 0; --m) {
        std::string name = d.str();
        e.metrics[std::move(name)] = d.f64();
    }
    if (!d.finished() || status > 1 ||
        (flags & ~(kHitCycleCap | kInterrupted | kStoppedAtCheckpoint)))
        return false;
    e.status = status == 0 ? "ok" : "failed";
    out = std::move(e);
    return true;
}

/**
 * Decode the record at the start of @p bytes into @p out. @return the
 * record's size, or 0 if @p bytes does not start with one whole valid
 * record: bad magic, a length past the end, a checksum mismatch, or a
 * payload that does not decode to exactly its length.
 */
std::size_t
decodeRecord(std::string_view bytes, JournalEntry &out)
{
    if (bytes.size() < kHeadBytes + kTailBytes ||
        !bytes.starts_with(kMagic))
        return 0;
    const auto *p = reinterpret_cast<const std::uint8_t *>(bytes.data());
    const std::uint64_t len = ckpt::loadLe(p + kMagic.size(), 4);
    if (len > bytes.size() - kHeadBytes - kTailBytes)
        return 0;
    const std::uint8_t *payload = p + kHeadBytes;
    if (ckpt::loadLe(payload + len) != ckpt::hashBytes(payload, len) ||
        !decodePayload(payload, len, out))
        return 0;
    return kHeadBytes + len + kTailBytes;
}

/**
 * Decode every valid record of @p bytes into @p entries, in order.
 * After damage the walk resynchronises at the next magic; whether the
 * damage was interior or the torn tail is known only once a later
 * record decodes (or none does), so @p interior(offset, length) hears
 * only of damage a valid record follows. @return the offset just past
 * the last valid record (0 if there is none).
 */
template <typename OnInterior>
std::size_t
walkRecords(std::string_view bytes, std::vector<JournalEntry> &entries,
            OnInterior &&interior)
{
    constexpr std::size_t kNoDamage = std::string_view::npos;
    std::size_t damagedAt = kNoDamage;
    std::size_t end = 0;
    for (std::size_t pos = 0; pos < bytes.size();) {
        JournalEntry e;
        const std::size_t n = decodeRecord(bytes.substr(pos), e);
        if (n == 0) {
            damagedAt = std::min(damagedAt, pos);
            pos = std::min(bytes.find(kMagic, pos + 1), bytes.size());
            continue;
        }
        if (damagedAt != kNoDamage) {
            interior(damagedAt, pos - damagedAt);
            damagedAt = kNoDamage;
        }
        entries.push_back(std::move(e));
        pos += n;
        end = pos;
    }
    return end;
}

} // namespace

std::string
encodeJournalEntry(const JournalEntry &e)
{
    std::string rec(kMagic);
    putLe(rec, 0, 4); // payload length, filled in below.
    putLe(rec, e.index);
    putStr(rec, e.label);
    putLe(rec, e.configHash);
    putLe(rec, e.workloadHash);
    putStr(rec, e.modelVersion);
    putLe(rec, e.status == "ok" ? 0 : 1, 1);
    putLe(rec, e.attempts, 4);
    putStr(rec, e.error);
    putLe(rec, e.sim.cycles);
    putLe(rec, e.sim.instructions);
    putLe(rec, e.sim.measured);
    putLe(rec, std::bit_cast<std::uint64_t>(e.sim.ipc));
    putLe(rec, e.sim.warmupEndCycle);
    putLe(rec,
          (e.sim.hitCycleCap ? kHitCycleCap : 0) |
              (e.sim.interrupted ? kInterrupted : 0) |
              (e.sim.stoppedAtCheckpoint ? kStoppedAtCheckpoint : 0),
          1);
    putLe(rec, e.sim.cores.size(), 4);
    for (const CoreResult &c : e.sim.cores) {
        putLe(rec, c.committed);
        putLe(rec, c.measured);
        putLe(rec, c.lastCommitCycle);
        putLe(rec, std::bit_cast<std::uint64_t>(c.ipc));
    }
    putLe(rec, e.metrics.size(), 4);
    for (const auto &[name, value] : e.metrics) {
        putStr(rec, name);
        putLe(rec, std::bit_cast<std::uint64_t>(value));
    }
    const std::size_t len = rec.size() - kHeadBytes;
    auto *p = reinterpret_cast<std::uint8_t *>(rec.data());
    ckpt::storeLe(p + kMagic.size(), len, 4);
    const std::uint64_t sum = ckpt::hashBytes(p + kHeadBytes, len);
    putLe(rec, sum);
    return rec;
}

bool
decodeJournalEntry(std::string_view record, JournalEntry &out)
{
    const std::size_t n = decodeRecord(record, out);
    return n != 0 && n == record.size();
}

bool
RunJournal::open(const std::string &path, std::string *err)
{
    appends_ = 0;
    dead_ = false;
    if (!file_.open(path, err))
        return false;
    // Cut a torn final append off before a new record buries it as
    // interior damage. Only a record prefix is a torn append; other
    // trailing bytes (a v1 or a foreign file) stay for load() to
    // report, and so does damage that a valid record follows.
    FileBytes file;
    if (!readWholeFile(path, kMaxJournalBytes, file))
        return true; // load() reports an unreadable or oversized file.
    const std::string_view bytes(
        reinterpret_cast<const char *>(file.data.get()), file.size);
    std::vector<JournalEntry> entries;
    const std::size_t end =
        walkRecords(bytes, entries, [](std::size_t, std::size_t) {});
    const std::string_view tail = bytes.substr(end);
    std::string cutErr;
    if (!tail.empty() &&
        (tail.starts_with(kMagic) || kMagic.starts_with(tail)) &&
        !file_.truncate(end, &cutErr)) {
        warn("journal '%s': cannot cut its torn tail: %s", path.c_str(),
             cutErr.c_str());
    }
    return true;
}

void
RunJournal::append(const JournalEntry &e)
{
    if (!file_.isOpen())
        return;
    const std::uint64_t ordinal = appends_++;
    const std::string record = encodeJournalEntry(e);

    if (dead_)
        return; // torn by the injected fault; the "crash" happened.
    const check::FaultPlan &fault = check::activeFaultPlan();
    if (fault.active(check::FaultKind::TruncateJournal) &&
        ordinal == fault.at) {
        warn("fault injection: tearing journal append %llu of '%s' "
             "mid-record",
             static_cast<unsigned long long>(ordinal),
             file_.path().c_str());
        std::string err;
        if (!file_.append(
                std::string_view(record).substr(0, record.size() / 2),
                &err))
            warn("journal append failed: %s", err.c_str());
        dead_ = true;
        return;
    }

    std::string err;
    if (!file_.append(record, &err)) {
        warn("journal append to '%s' failed: %s",
             file_.path().c_str(), err.c_str());
    }
}

std::vector<JournalEntry>
RunJournal::load(const std::string &path)
{
    std::vector<JournalEntry> entries;
    if (::access(path.c_str(), F_OK) != 0 && errno == ENOENT)
        return entries; // absent journal: nothing completed yet.
    FileBytes file;
    std::string err;
    if (!readWholeFile(path, kMaxJournalBytes, file, &err))
        fatal("journal '%s': %s", path.c_str(), err.c_str());
    const std::string_view bytes(
        reinterpret_cast<const char *>(file.data.get()), file.size);
    if (bytes.starts_with('{')) {
        fatal("journal '%s' is a v1 (JSONL) journal, which this build "
              "no longer reads: a journal is a resume log, not an "
              "archive; remove it and run the sweep again",
              path.c_str());
    }

    walkRecords(bytes, entries, [&](std::size_t at, std::size_t len) {
        warn("journal '%s': skipped %zu damaged bytes at offset %zu; "
             "later records are intact",
             path.c_str(), len, at);
    });
    // Damage with no valid record after it is a torn final append,
    // the normal crash signature: skipped without noise (and cut off
    // by the next open()).
    return entries;
}

} // namespace s64v::exp
