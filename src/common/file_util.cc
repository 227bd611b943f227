#include "common/file_util.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

namespace s64v
{

namespace
{

void
setErr(std::string *err, const std::string &what)
{
    if (err)
        *err = what + ": " + std::strerror(errno);
}

/**
 * Write every byte of @p parts, in order, with as few writev(2) calls
 * as the kernel allows: at most IOV_MAX pieces per call, resuming
 * mid-piece after a partial write.
 */
bool
writeAll(int fd, std::span<const std::string_view> parts)
{
    std::vector<iovec> iov;
    iov.reserve(parts.size());
    for (std::string_view p : parts) {
        if (!p.empty())
            iov.push_back({const_cast<char *>(p.data()), p.size()});
    }
    std::size_t i = 0;
    while (i < iov.size()) {
        const int cnt = static_cast<int>(
            std::min<std::size_t>(iov.size() - i, IOV_MAX));
        const ssize_t n = ::writev(fd, iov.data() + i, cnt);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        auto left = static_cast<std::size_t>(n);
        while (i < iov.size() && left >= iov[i].iov_len)
            left -= iov[i++].iov_len;
        if (left) {
            iov[i].iov_base = static_cast<char *>(iov[i].iov_base) + left;
            iov[i].iov_len -= left;
        }
    }
    return true;
}

/**
 * fsync the directory holding @p path, so a just-created or
 * just-renamed entry survives a crash. A filesystem that cannot sync
 * a directory (EINVAL) has nothing more to offer and is not an error.
 */
bool
syncParentDir(const std::string &path, std::string *err)
{
    const std::size_t slash = path.rfind('/');
    std::string dir = ".";
    if (slash != std::string::npos)
        dir = slash == 0 ? "/" : path.substr(0, slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        setErr(err, "open directory " + dir);
        return false;
    }
    const bool ok = ::fsync(fd) == 0 || errno == EINVAL;
    if (!ok)
        setErr(err, "fsync directory " + dir);
    ::close(fd);
    return ok;
}

} // namespace

bool
atomicWriteFile(const std::string &path,
                std::span<const std::string_view> parts,
                std::string *err)
{
    // The temp file must live in the target's directory: rename(2) is
    // only atomic within one filesystem. The counter keeps two calls
    // of one process, on any threads, off each other's temp file.
    static std::atomic<std::uint64_t> calls{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(calls++);
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setErr(err, "open " + tmp);
        return false;
    }
    bool ok = writeAll(fd, parts);
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (!ok)
        setErr(err, "write " + tmp);
    if (::close(fd) != 0 && ok) {
        setErr(err, "close " + tmp);
        ok = false;
    }
    if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
        setErr(err, "rename " + tmp + " -> " + path);
        ok = false;
    }
    if (!ok) {
        ::unlink(tmp.c_str());
        return false;
    }
    return syncParentDir(path, err);
}

bool
readWholeFile(const std::string &path, std::uint64_t maxBytes,
              FileBytes &out, std::string *err)
{
    int fd;
    do {
        fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) {
        setErr(err, "cannot open");
        return false;
    }
    const auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        ::close(fd);
        return false;
    };

    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
        return fail("not a regular file");
    if (st.st_size < 0 ||
        static_cast<std::uint64_t>(st.st_size) > maxBytes) {
        return fail("implausible size " + std::to_string(st.st_size) +
                    " bytes");
    }
    // Every byte is read over before anything looks at it, so the
    // buffer is left uninitialized rather than zero-filled first.
    const auto size = static_cast<std::size_t>(st.st_size);
    auto data = std::make_unique_for_overwrite<std::uint8_t[]>(size);
    for (std::size_t got = 0; got < size;) {
        const ssize_t n = ::read(fd, data.get() + got, size - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return fail("short read");
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    out.data = std::move(data);
    out.size = size;
    return true;
}

AppendFile::~AppendFile()
{
    close();
}

bool
AppendFile::open(const std::string &path, std::string *err)
{
    close();
    bool created = true;
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND,
                 0644);
    if (fd_ < 0 && errno == EEXIST) {
        created = false;
        fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    }
    if (fd_ < 0) {
        setErr(err, "open " + path);
        return false;
    }
    if (created && !syncParentDir(path, err)) {
        close();
        return false;
    }
    path_ = path;
    return true;
}

bool
AppendFile::append(std::string_view data, std::string *err)
{
    if (fd_ < 0) {
        if (err)
            *err = "append on closed file";
        return false;
    }
    if (!writeAll(fd_, std::span(&data, 1))) {
        setErr(err, "write " + path_);
        return false;
    }
    if (::fsync(fd_) != 0) {
        setErr(err, "fsync " + path_);
        return false;
    }
    return true;
}

bool
AppendFile::truncate(std::uint64_t size, std::string *err)
{
    if (fd_ < 0) {
        if (err)
            *err = "truncate on closed file";
        return false;
    }
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
        setErr(err, "truncate " + path_);
        return false;
    }
    if (::fsync(fd_) != 0) {
        setErr(err, "fsync " + path_);
        return false;
    }
    return true;
}

void
AppendFile::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_.clear();
}

} // namespace s64v
