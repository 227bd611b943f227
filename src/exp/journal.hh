/**
 * @file
 * Write-ahead run journal for sweeps: one binary record per finished
 * run of a point, appended and fsynced before the in-memory result is
 * merged, so a killed sweep loses at most the points that were still
 * running. Each entry is keyed on the point's position plus hashes of
 * its machine configuration, its workload, and the producing model
 * version; --resume replays a journal against the *current* sweep and
 * only honours entries whose keys still match, so an edited sweep or
 * a rebuilt model silently re-runs instead of mixing stale results.
 *
 * A record is self-describing: the magic "S64VJRN2" (format v2), a
 * u32 payload length, the little-endian payload, and a u64
 * ckpt::hashBytes() checksum of the payload. Doubles (IPC, metrics)
 * travel as their IEEE-754 bit patterns, so a resumed sweep's merged
 * results are bit-identical to an uninterrupted run's, not merely
 * close. A journal is a resume log, not an archive: the v1 (JSONL)
 * format is refused, not converted.
 */

#ifndef S64V_EXP_JOURNAL_HH
#define S64V_EXP_JOURNAL_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_util.hh"
#include "sim/system.hh"

namespace s64v::exp
{

/** One journal record: the durable outcome of one run of a point. */
struct JournalEntry
{
    std::uint64_t index = 0;    ///< point position within the sweep.
    std::string label;
    std::uint64_t configHash = 0;   ///< effective-machine fingerprint.
    std::uint64_t workloadHash = 0; ///< profile + instrs fingerprint.
    std::string modelVersion;       ///< producing model version.
    std::string status;         ///< "ok" or "failed".
    std::uint32_t attempts = 1; ///< journalled runs including this one.
    std::string error;          ///< diagnostic when not "ok".
    SimResult sim;              ///< meaningful when status == "ok".
    std::map<std::string, double> metrics;
};

/** Largest journal RunJournal::load() reads (about 500 k entries). */
constexpr std::uint64_t kMaxJournalBytes = std::uint64_t{256} << 20;

/** Encode @p e as one whole record: magic, length, payload, checksum. */
std::string encodeJournalEntry(const JournalEntry &e);

/**
 * Decode @p record, which must be exactly one record. @return false on
 * any damage (bad magic, length or checksum, a payload that does not
 * decode to exactly its length, an unknown status or flag); @p out is
 * then unspecified. A journal is advisory, never trusted blindly.
 */
bool decodeJournalEntry(std::string_view record, JournalEntry &out);

/** Append-side handle. Each append is fsynced as one record. */
class RunJournal
{
  public:
    /**
     * Open @p path for appending (created if absent; an existing
     * journal grows, which is what --resume wants). A torn final
     * append is cut off first, so appending never turns it into
     * interior damage. @return success.
     */
    bool open(const std::string &path, std::string *err = nullptr);

    bool isOpen() const { return file_.isOpen(); }
    const std::string &path() const { return file_.path(); }

    /**
     * Append one entry. Honours the truncate-journal fault plan: the
     * configured append writes only half its record and the journal
     * goes dead, modelling a crash mid-append. I/O failures warn and
     * continue — losing durability must not kill the sweep itself.
     */
    void append(const JournalEntry &e);

    /**
     * Load every valid record of @p path, in file order, reading the
     * file once (at most kMaxJournalBytes). A missing file is an empty
     * journal. After damage the loader resynchronises at the next
     * magic: damage with no valid record after it is a torn final
     * append, the normal crash signature, and is skipped silently
     * (open() cuts it off);
     * interior damage is skipped with a warning naming its byte
     * offset. fatal() on an unreadable or oversized file, and on a v1
     * (JSONL) journal.
     */
    static std::vector<JournalEntry> load(const std::string &path);

  private:
    AppendFile file_;
    std::uint64_t appends_ = 0; ///< truncate-journal fault ordinal.
    bool dead_ = false;         ///< torn by the injected fault.
};

} // namespace s64v::exp

#endif // S64V_EXP_JOURNAL_HH
