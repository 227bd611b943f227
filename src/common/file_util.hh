/**
 * @file
 * Durable file-writing primitives. Every JSON/JSONL/binary artifact
 * the simulator produces goes through one of these so a run killed at
 * an arbitrary instant never leaves a truncated or interleaved file:
 * atomicWriteFile() stages the content in a temp file in the target
 * directory, fsyncs it, renames it into place (rename(2) on one
 * filesystem is atomic) and fsyncs the directory, so a write reported
 * done survives a power loss; AppendFile gives record-granular
 * durability for journals, where each append is written and fsynced
 * as a unit. readWholeFile() is the matching one-pass reader for
 * binary artifacts such as checkpoints and journals.
 */

#ifndef S64V_COMMON_FILE_UTIL_HH
#define S64V_COMMON_FILE_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace s64v
{

/**
 * Write the concatenation of @p parts to @p path atomically: temp
 * file + one gathered write + fsync + rename + directory fsync.
 * Readers never observe a partial file — they see either the old
 * content or the new content. The temp name is unique per call, so
 * concurrent writers of one path each succeed and the last rename
 * wins. @return false (with the reason in @p err if non-null) on any
 * I/O failure; unless only the final directory fsync failed, the
 * target is untouched and the temp file removed.
 */
bool atomicWriteFile(const std::string &path,
                     std::span<const std::string_view> parts,
                     std::string *err = nullptr);

/** atomicWriteFile() of a single buffer. */
inline bool
atomicWriteFile(const std::string &path, std::string_view data,
                std::string *err = nullptr)
{
    return atomicWriteFile(path, std::span(&data, 1), err);
}

/** The bytes of a whole file, in storage that was never zero-filled. */
struct FileBytes
{
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
};

/**
 * Read the whole regular file @p path into @p out with one
 * open/fstat/read loop (retrying on EINTR). A file larger than
 * @p maxBytes is refused before anything is allocated. @return false
 * (with the reason in @p err if non-null) if the file cannot be
 * opened, is not a regular file, is too large, or ends early.
 */
bool readWholeFile(const std::string &path, std::uint64_t maxBytes,
                   FileBytes &out, std::string *err = nullptr);

/**
 * Append-only file handle for record journals: each append() is one
 * write(2) followed by fsync(2), so a crash can truncate at most the
 * record being appended (and only mid-write). Opens with O_APPEND so
 * concurrent appenders from one process interleave at record, not
 * byte, granularity (callers still serialize with a mutex for
 * ordering).
 */
class AppendFile
{
  public:
    AppendFile() = default;
    ~AppendFile();

    AppendFile(const AppendFile &) = delete;
    AppendFile &operator=(const AppendFile &) = delete;

    /**
     * Open (creating if needed, and then fsyncing the directory so
     * the new file survives a crash) for append. @return success.
     */
    bool open(const std::string &path, std::string *err = nullptr);

    /** Append @p data and fsync. @return success. */
    bool append(std::string_view data, std::string *err = nullptr);

    /** Cut the file back to @p size bytes and fsync. @return success. */
    bool truncate(std::uint64_t size, std::string *err = nullptr);

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

    void close();

  private:
    int fd_ = -1;
    std::string path_;
};

} // namespace s64v

#endif // S64V_COMMON_FILE_UTIL_HH
