#include "ckpt/snapshot.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "check/fault_inject.hh"
#include "common/file_util.hh"
#include "common/logging.hh"

namespace s64v::ckpt
{

namespace
{

constexpr char kMagic[8] = {'S', '6', '4', 'V', 'C', 'K', 'P', 'T'};

/** Snapshots are machine state, not archives; cap what we load. */
constexpr std::size_t kMaxSnapshotBytes = 1ull << 30;

void
appendLe(std::vector<std::uint8_t> &out, std::uint64_t v,
         unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
appendString(std::vector<std::uint8_t> &out, const std::string &s)
{
    appendLe(out, s.size(), 4);
    out.insert(out.end(), s.begin(), s.end());
}

// hashBytes() constants: odd multipliers (so each multiply is a
// bijection mod 2^64) and distinct lane offsets.
constexpr std::uint64_t kHashMul = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kHashLane = 0xc2b2ae3d27d4eb4full;

/**
 * One hashBytes() step. For fixed @p h it is a bijection of @p w, and
 * for fixed @p w a bijection of @p h, so a changed input always
 * changes the state. The rotation carries each word's high bits into
 * the low bits the multiply then spreads upward; without it a flip of
 * a word's top bit would only ever reach the state's top bit, and two
 * such flips would cancel.
 */
std::uint64_t
hashStep(std::uint64_t h, std::uint64_t w)
{
    return std::rotl(h ^ w, 31) * kHashMul;
}

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
hashBytes(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t n = len;
    // Four independent lanes, one word each per 32-byte block, so the
    // multiplies overlap instead of waiting on each other.
    std::uint64_t a = seed + kHashLane;
    std::uint64_t b = seed + 2 * kHashLane;
    std::uint64_t c = seed + 3 * kHashLane;
    std::uint64_t d = seed + 4 * kHashLane;
    for (; n >= 32; p += 32, n -= 32) {
        a = hashStep(a, loadLe(p));
        b = hashStep(b, loadLe(p + 8));
        c = hashStep(c, loadLe(p + 16));
        d = hashStep(d, loadLe(p + 24));
    }
    // Fold the length, the lanes, then the up to 31 tail bytes (whole
    // words, then the last partial one zero-padded) into one chain.
    std::uint64_t h = hashStep(seed, len);
    h = hashStep(h, a);
    h = hashStep(h, b);
    h = hashStep(h, c);
    h = hashStep(h, d);
    for (; n >= 8; p += 8, n -= 8)
        h = hashStep(h, loadLe(p));
    if (n) {
        std::uint64_t w = 0;
        for (std::size_t i = 0; i < n; ++i)
            w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        h = hashStep(h, w);
    }
    // Final avalanche, a bijection too: every input bit reaches every
    // output bit.
    h ^= h >> 33;
    h *= kHashLane;
    h ^= h >> 29;
    return h;
}

void
SnapshotWriter::beginSection(const std::string &name)
{
    for (const Section &s : sections_) {
        if (s.name == name)
            panic("snapshot: duplicate section '%s'", name.c_str());
    }
    sections_.push_back(Section{name, nullptr, 0, 0});
    cur_ = &sections_.back();
}

void
SnapshotWriter::reserveMore(std::size_t n)
{
    // Geometric growth into uninitialized storage: every byte below
    // size is written by a put before it is read, so zero-filling the
    // spare capacity would be pure waste.
    const std::size_t cap = std::max(
        {2 * cur_->capacity, cur_->size + n, std::size_t{4096}});
    auto grown = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    if (cur_->size)
        std::memcpy(grown.get(), cur_->data.get(), cur_->size);
    cur_->data = std::move(grown);
    cur_->capacity = cap;
}

void
SnapshotWriter::noSection()
{
    panic("snapshot: put outside any section");
}

void
SnapshotWriter::putU64Vec(const std::vector<std::uint64_t> &v)
{
    putU64(v.size());
    for (std::uint64_t x : v)
        putU64(x);
}

std::vector<std::string_view>
SnapshotWriter::pieces(const std::string &model_version,
                       std::vector<std::uint8_t> &framing) const
{
    // Everything between two payloads (one section's checksum, the
    // next one's name and length) is contiguous in the file, so the
    // framing is one buffer cut at the payload positions.
    framing.assign(kMagic, kMagic + sizeof(kMagic));
    appendLe(framing, kSnapshotFormatVersion, 4);
    appendLe(framing, sections_.size(), 4);
    appendString(framing, model_version);
    std::vector<std::size_t> cuts;
    cuts.reserve(sections_.size());
    for (const Section &s : sections_) {
        appendString(framing, s.name);
        appendLe(framing, s.size, 8);
        cuts.push_back(framing.size());
        appendLe(framing, hashBytes(s.data.get(), s.size), 8);
    }

    const auto *f = reinterpret_cast<const char *>(framing.data());
    std::vector<std::string_view> out;
    out.reserve(2 * sections_.size() + 1);
    std::size_t from = 0;
    for (std::size_t i = 0; i < sections_.size(); ++i) {
        out.emplace_back(f + from, cuts[i] - from);
        out.emplace_back(
            reinterpret_cast<const char *>(sections_[i].data.get()),
            sections_[i].size);
        from = cuts[i];
    }
    out.emplace_back(f + from, framing.size() - from);
    return out;
}

std::vector<std::uint8_t>
SnapshotWriter::finish(const std::string &model_version) const
{
    std::vector<std::uint8_t> framing;
    const std::vector<std::string_view> parts =
        pieces(model_version, framing);
    std::size_t size = 0;
    for (std::string_view p : parts)
        size += p.size();
    std::vector<std::uint8_t> out;
    out.reserve(size);
    for (std::string_view p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

void
SnapshotWriter::writeFile(const std::string &path,
                          const std::string &model_version) const
{
    std::vector<std::uint8_t> framing;
    std::vector<std::string_view> parts = pieces(model_version, framing);

    // Injected corruption: flip one bit at offset fault.at modulo the
    // image size (header + payload territory) so the reader's
    // validation path is exercised end to end in tests.
    std::vector<std::uint8_t> image;
    const check::FaultPlan &fault = check::activeFaultPlan();
    if (fault.active(check::FaultKind::CorruptCheckpoint)) {
        image = finish(model_version);
        const std::size_t pos =
            static_cast<std::size_t>(fault.at) % image.size();
        image[pos] ^= 0x10;
        parts.assign(1, std::string_view(
                            reinterpret_cast<const char *>(image.data()),
                            image.size()));
        warn("fault injection: flipped a bit at offset %zu of "
             "checkpoint '%s'", pos, path.c_str());
    }

    std::string err;
    if (!atomicWriteFile(path, parts, &err))
        fatal("checkpoint '%s': %s", path.c_str(), err.c_str());
}

SnapshotReader
SnapshotReader::fromFile(const std::string &path)
{
    FileBytes file;
    std::string err;
    if (!readWholeFile(path, kMaxSnapshotBytes, file, &err))
        fatal("checkpoint '%s': %s", path.c_str(), err.c_str());
    return adopt(std::move(file.data), file.size, path);
}

SnapshotReader
SnapshotReader::fromBytes(std::vector<std::uint8_t> bytes,
                          std::string origin)
{
    auto copy =
        std::make_unique_for_overwrite<std::uint8_t[]>(bytes.size());
    if (!bytes.empty())
        std::memcpy(copy.get(), bytes.data(), bytes.size());
    return adopt(std::move(copy), bytes.size(), std::move(origin));
}

SnapshotReader
SnapshotReader::adopt(std::unique_ptr<std::uint8_t[]> bytes,
                      std::size_t size, std::string origin)
{
    SnapshotReader r;
    r.bytes_ = std::move(bytes);
    r.size_ = size;
    r.origin_ = std::move(origin);
    r.parse();
    return r;
}

void
SnapshotReader::corrupt(const std::string &what) const
{
    if (open_) {
        fatal("checkpoint '%s': %s (section '%s')", origin_.c_str(),
              what.c_str(), open_->name.c_str());
    }
    fatal("checkpoint '%s': %s", origin_.c_str(), what.c_str());
}

void
SnapshotReader::parse()
{
    open_ = nullptr;
    cursor_ = 0;

    auto need = [&](std::size_t n, const char *what) {
        if (size_ - cursor_ < n)
            corrupt(std::string("truncated (") + what + ")");
    };
    auto readLe = [&](unsigned n) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(bytes_[cursor_ + i])
                 << (8 * i);
        cursor_ += n;
        return v;
    };
    auto readString = [&](const char *what) {
        need(4, what);
        const std::size_t len =
            static_cast<std::size_t>(readLe(4));
        need(len, what);
        std::string s(
            reinterpret_cast<const char *>(bytes_.get() + cursor_),
            len);
        cursor_ += len;
        return s;
    };

    need(sizeof(kMagic), "magic");
    if (std::memcmp(bytes_.get(), kMagic, sizeof(kMagic)) != 0)
        corrupt("bad magic (not a snapshot file)");
    cursor_ += sizeof(kMagic);

    need(8, "header");
    const std::uint32_t format = static_cast<std::uint32_t>(readLe(4));
    if (format != kSnapshotFormatVersion) {
        corrupt("unsupported format version " + std::to_string(format) +
                " (this build reads version " +
                std::to_string(kSnapshotFormatVersion) + ")");
    }
    const std::size_t count = static_cast<std::size_t>(readLe(4));
    modelVersion_ = readString("model version");

    // Bound the count by the bytes left before reserving: a section
    // record is at least 20 bytes (4-byte name length, 8-byte size,
    // 8-byte checksum), so a corrupt count cannot ask for more
    // memory than the file could describe.
    if (count > (size_ - cursor_) / 20)
        corrupt("section count " + std::to_string(count) +
                " exceeds what the remaining bytes can hold");
    sections_.clear();
    sections_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Section s;
        s.name = readString("section name");
        need(8, "section size");
        const std::uint64_t size = readLe(8);
        if (size > size_ - cursor_)
            corrupt("truncated payload of section '" + s.name + "'");
        s.offset = cursor_;
        s.size = static_cast<std::size_t>(size);
        cursor_ += s.size;
        need(8, "section checksum");
        const std::uint64_t stored = readLe(8);
        const std::uint64_t computed =
            hashBytes(bytes_.get() + s.offset, s.size);
        if (stored != computed) {
            corrupt("checksum mismatch in section '" + s.name +
                    "' (snapshot is damaged)");
        }
        for (const Section &prev : sections_) {
            if (prev.name == s.name)
                corrupt("duplicate section '" + s.name + "'");
        }
        sections_.push_back(std::move(s));
    }
    if (cursor_ != size_)
        corrupt("trailing garbage after last section");
    end_ = cursor_;
}

bool
SnapshotReader::hasSection(const std::string &name) const
{
    for (const Section &s : sections_) {
        if (s.name == name)
            return true;
    }
    return false;
}

void
SnapshotReader::openSection(const std::string &name)
{
    if (open_)
        corrupt("openSection('" + name + "') with a section open");
    for (const Section &s : sections_) {
        if (s.name == name) {
            open_ = &s;
            cursor_ = s.offset;
            end_ = s.offset + s.size;
            return;
        }
    }
    corrupt("missing section '" + name + "'");
}

void
SnapshotReader::closeSection()
{
    if (!open_)
        corrupt("closeSection with no section open");
    if (cursor_ != end_)
        corrupt("section not fully consumed (layout mismatch)");
    open_ = nullptr;
}

void
SnapshotReader::overrun() const
{
    if (!open_)
        corrupt("read with no section open");
    corrupt("read past end of section");
}

std::string
SnapshotReader::getString()
{
    const std::uint32_t len = getU32();
    if (end_ - cursor_ < len)
        corrupt("string runs past end of section");
    std::string s(
        reinterpret_cast<const char *>(bytes_.get() + cursor_), len);
    cursor_ += len;
    return s;
}

std::vector<std::uint64_t>
SnapshotReader::getU64Vec()
{
    const std::uint64_t n = getU64();
    if ((end_ - cursor_) / 8 < n)
        corrupt("vector runs past end of section");
    std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
    for (auto &x : v)
        x = getU64();
    return v;
}

void
SnapshotReader::require(bool cond, const char *what)
{
    if (!cond)
        corrupt(std::string("incompatible state: ") + what);
}

} // namespace s64v::ckpt
