/**
 * @file
 * Versioned binary snapshot container for checkpoint/restore. A
 * snapshot is a sequence of named sections, each carrying an opaque
 * little-endian payload and a hashBytes() checksum; the file header
 * records a magic, the container format version, and the producing
 * model version string. Components write themselves with the typed
 * put* API and read themselves back in the same order; the reader
 * validates the header, every section checksum, and every bounds
 * check up front or on access, and reports any corruption through
 * fatal() with a clean diagnostic — a damaged checkpoint must never
 * crash or silently restore garbage.
 *
 * Compatibility policy: the format version is bumped on any layout
 * change and old versions are rejected (a checkpoint is a cache of a
 * deterministic run, never an archival format); the model version
 * string must match the restoring build exactly, because a restored
 * machine only makes sense bit-for-bit.
 */

#ifndef S64V_CKPT_SNAPSHOT_HH
#define S64V_CKPT_SNAPSHOT_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace s64v::ckpt
{

/**
 * FNV-1a 64-bit, one byte per step, for short field-wise hashes whose
 * values must stay put: the fingerprints of model/fingerprint.hh
 * (configuration, workload, a trace's name and length), the sweep
 * journal's per-point workload key, and the benchmark's stats digest.
 * Changing it would orphan every existing journal. Bulk bytes go
 * through hashBytes().
 */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/**
 * Word-wise 64-bit checksum: the per-section snapshot checksum and the
 * trace-record hash of fingerprintTrace(). Reads 8-byte little-endian
 * words into four independent lanes, so it runs at memory speed
 * rather than one multiply latency per byte, and gives the same value
 * on every host and at every buffer alignment. Every step is a
 * bijection in both its state and its input word, so any single-bit
 * flip of @p data changes the result with certainty.
 */
std::uint64_t hashBytes(const void *data, std::size_t len,
                        std::uint64_t seed = 0);

/** Container format version; bumped on any layout change. */
constexpr std::uint32_t kSnapshotFormatVersion = 2;

/**
 * Swap @p v between host and little-endian byte order (a no-op on a
 * little-endian host); the snapshot stream is little-endian everywhere.
 */
constexpr std::uint64_t
toLittleEndian(std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::big)
        return __builtin_bswap64(v);
    return v;
}

/**
 * Builds a snapshot: beginSection()/put*()/.../writeFile(). Sections
 * are self-contained; the orchestrator opens one per component (e.g.
 * "cpu0", "mem", "stats") so a checksum failure names the damaged
 * unit.
 */
class SnapshotWriter
{
  public:
    SnapshotWriter() = default;
    // cur_ points into sections_, so a copy would write into the
    // original's buffer.
    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    void beginSection(const std::string &name);

    void putU8(std::uint8_t v) { putLe(v, 1); }
    void putU16(std::uint16_t v) { putLe(v, 2); }
    void putU32(std::uint32_t v) { putLe(v, 4); }
    void putU64(std::uint64_t v) { putLe(v, 8); }
    void putI64(std::int64_t v)
    {
        putU64(static_cast<std::uint64_t>(v));
    }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** Doubles are stored as their IEEE-754 bit pattern: exact. */
    void putDouble(double v) { putU64(std::bit_cast<std::uint64_t>(v)); }
    void putString(const std::string &s)
    {
        putU32(static_cast<std::uint32_t>(s.size()));
        putBytes(s.data(), s.size());
    }
    void putBytes(const void *data, std::size_t len)
    {
        std::uint8_t *p = grow(len);
        if (len)
            std::memcpy(p, data, len);
    }
    void putU64Vec(const std::vector<std::uint64_t> &v);

    /** Serialize header + all sections into one image. */
    std::vector<std::uint8_t> finish(
        const std::string &model_version) const;

    /**
     * finish() + atomic write to @p path. Honours the
     * corrupt-checkpoint fault-injection mode (a deliberate bit flip
     * in one section payload, exercising the reader's checksum path).
     * Fails via fatal() on I/O errors.
     */
    void writeFile(const std::string &path,
                   const std::string &model_version) const;

  private:
    struct Section
    {
        std::string name;
        std::vector<std::uint8_t> data;
    };

    /** Extend the open section by @p n bytes; returns the first. */
    std::uint8_t *grow(std::size_t n)
    {
        if (!cur_)
            noSection();
        const std::size_t at = cur_->size();
        cur_->resize(at + n);
        return cur_->data() + at;
    }

    /** Store the low @p n bytes of @p v, least significant first. */
    void putLe(std::uint64_t v, std::size_t n)
    {
        const std::uint64_t le = toLittleEndian(v);
        std::memcpy(grow(n), &le, n);
    }

    [[noreturn]] static void noSection();

    std::vector<Section> sections_;
    /** The open (last) section's payload; null before the first. */
    std::vector<std::uint8_t> *cur_ = nullptr;
};

/**
 * Parses and validates a snapshot image, then hands sections back for
 * typed reads. Every malformed condition — bad magic, unknown format
 * version, short file, checksum mismatch, missing section, read past
 * a section end, trailing unread bytes — goes through fatal() with a
 * diagnostic naming the file and section.
 */
class SnapshotReader
{
  public:
    /** mmap-free whole-file load + full validation. */
    static SnapshotReader fromFile(const std::string &path);

    /** Validate an in-memory image; @p origin names it in errors. */
    static SnapshotReader fromBytes(std::vector<std::uint8_t> bytes,
                                    std::string origin);

    const std::string &modelVersion() const { return modelVersion_; }

    bool hasSection(const std::string &name) const;

    /** Position the cursor at @p name's payload; fatal if missing. */
    void openSection(const std::string &name);

    /** Assert the open section was consumed exactly. */
    void closeSection();

    std::uint8_t getU8() { return *take(1); }
    std::uint16_t getU16()
    {
        return static_cast<std::uint16_t>(getLe(2));
    }
    std::uint32_t getU32()
    {
        return static_cast<std::uint32_t>(getLe(4));
    }
    std::uint64_t getU64() { return getLe(8); }
    std::int64_t getI64()
    {
        return static_cast<std::int64_t>(getU64());
    }
    bool getBool() { return getU8() != 0; }
    double getDouble() { return std::bit_cast<double>(getU64()); }
    std::string getString();
    void getBytes(void *out, std::size_t len)
    {
        const std::uint8_t *p = take(len);
        if (len)
            std::memcpy(out, p, len);
    }
    std::vector<std::uint64_t> getU64Vec();

    /**
     * Restore-side validation helper: fatal (naming the open section)
     * unless @p cond holds. Components use it to reject snapshots
     * whose recorded shapes disagree with the configured machine.
     */
    void require(bool cond, const char *what);

    /** The section-scoped corruption diagnostic (never returns). */
    [[noreturn]] void corrupt(const std::string &what) const;

  private:
    struct Section
    {
        std::string name;
        std::size_t offset = 0; ///< payload start in bytes_.
        std::size_t size = 0;
    };

    SnapshotReader() = default;
    void parse();

    /**
     * Consume @p n bytes of the open section and return the first;
     * the one bounds check behind every typed read.
     */
    const std::uint8_t *take(std::size_t n)
    {
        if (n > end_ - cursor_)
            overrun();
        const std::uint8_t *p = bytes_.data() + cursor_;
        cursor_ += n;
        return p;
    }

    /** Read an @p n-byte little-endian unsigned value. */
    std::uint64_t getLe(std::size_t n)
    {
        std::uint64_t le = 0;
        std::memcpy(&le, take(n), n);
        return toLittleEndian(le);
    }

    [[noreturn]] void overrun() const;

    std::vector<std::uint8_t> bytes_;
    std::string origin_;
    std::string modelVersion_;
    std::vector<Section> sections_;
    const Section *open_ = nullptr;
    std::size_t cursor_ = 0; ///< absolute offset into bytes_.
    /** End of the open section's payload; cursor_ when none is open. */
    std::size_t end_ = 0;
};

} // namespace s64v::ckpt

#endif // S64V_CKPT_SNAPSHOT_HH
