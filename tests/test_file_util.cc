/**
 * @file
 * Tests for the durable file-writing primitives (common/file_util.hh):
 * concurrent atomic writes of one path must each succeed and leave one
 * whole content behind, a gathered write must equal the concatenation
 * of its pieces however many there are, an append file must create
 * and then extend a journal, and a whole-file read must return the
 * bytes or refuse cleanly.
 */

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_util.hh"

namespace s64v
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** Leftover "<name>.tmp.*" files beside @p path. */
std::size_t
strayTempFiles(const std::string &path)
{
    const std::filesystem::path p(path);
    const std::string prefix = p.filename().string() + ".tmp.";
    std::size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(p.parent_path())) {
        if (e.path().filename().string().starts_with(prefix))
            ++n;
    }
    return n;
}

TEST(FileUtil, ConcurrentAtomicWritesToOnePathBothSucceed)
{
    // With one temp name per process, the two writers truncate and
    // rename each other's file and one of them fails.
    const std::string path = tempPath("concurrent_atomic.bin");
    const std::string a(200000, 'a');
    const std::string b(100000, 'b');
    for (int round = 0; round < 20; ++round) {
        bool ok_a = false;
        bool ok_b = false;
        std::string err_a;
        std::string err_b;
        std::thread ta([&] { ok_a = atomicWriteFile(path, a, &err_a); });
        std::thread tb([&] { ok_b = atomicWriteFile(path, b, &err_b); });
        ta.join();
        tb.join();
        EXPECT_TRUE(ok_a) << "round " << round << ": " << err_a;
        EXPECT_TRUE(ok_b) << "round " << round << ": " << err_b;
        const std::string got = slurp(path);
        EXPECT_TRUE(got == a || got == b)
            << "round " << round << ": " << got.size() << " bytes";
    }
    EXPECT_EQ(strayTempFiles(path), 0u);
    std::filesystem::remove(path);
}

TEST(FileUtil, GatheredWriteEqualsTheConcatenation)
{
    // More pieces than one writev(2) takes (IOV_MAX is 1024 on
    // Linux), of uneven sizes, some empty.
    std::vector<std::string> store;
    std::string want;
    for (int i = 0; i < 3000; ++i) {
        store.emplace_back(static_cast<std::size_t>(i % 7) * 5,
                           static_cast<char>('a' + i % 26));
        want += store.back();
    }
    const std::vector<std::string_view> parts(store.begin(),
                                              store.end());
    const std::string path = tempPath("gathered.bin");
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, parts, &err)) << err;
    EXPECT_EQ(slurp(path), want);

    // The single-buffer overload is the one-piece case.
    ASSERT_TRUE(atomicWriteFile(path, "single", &err)) << err;
    EXPECT_EQ(slurp(path), "single");
    ASSERT_TRUE(atomicWriteFile(path, "", &err)) << err;
    EXPECT_EQ(slurp(path), "");
    std::filesystem::remove(path);
}

TEST(FileUtil, AppendFileCreatesThenExtends)
{
    const std::string path = tempPath("append.jsonl");
    std::filesystem::remove(path);
    std::string err;
    {
        AppendFile f;
        ASSERT_TRUE(f.open(path, &err)) << err;
        ASSERT_TRUE(f.append("one\n", &err)) << err;
    }
    {
        AppendFile f;
        ASSERT_TRUE(f.open(path, &err)) << err;
        ASSERT_TRUE(f.append("two\n", &err)) << err;
    }
    EXPECT_EQ(slurp(path), "one\ntwo\n");

    AppendFile bad;
    EXPECT_FALSE(bad.open(tempPath("no_such_dir/append.jsonl"), &err));
    EXPECT_FALSE(bad.isOpen());
    std::filesystem::remove(path);
}

TEST(FileUtil, ReadWholeFileReturnsTheBytesOrRefuses)
{
    const std::string path = tempPath("whole.bin");
    std::string content(100000, '\0');
    for (std::size_t i = 0; i < content.size(); ++i)
        content[i] = static_cast<char>(i * 131);
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, content, &err)) << err;

    FileBytes got;
    ASSERT_TRUE(readWholeFile(path, content.size(), got, &err)) << err;
    ASSERT_EQ(got.size, content.size());
    EXPECT_EQ(std::string_view(reinterpret_cast<const char *>(
                                   got.data.get()),
                               got.size),
              content);

    // Refused before anything is allocated: the bound, a missing
    // file, a directory.
    FileBytes none;
    EXPECT_FALSE(readWholeFile(path, content.size() - 1, none, &err));
    EXPECT_TRUE(err.starts_with("implausible size")) << err;
    EXPECT_FALSE(readWholeFile(tempPath("no_such.bin"), 1u << 20, none,
                               &err));
    EXPECT_TRUE(err.starts_with("cannot open")) << err;
    EXPECT_FALSE(readWholeFile(::testing::TempDir(), 1u << 20, none,
                               &err));
    EXPECT_EQ(err, "not a regular file");
    EXPECT_EQ(none.data, nullptr);

    ASSERT_TRUE(atomicWriteFile(path, std::string_view(), &err)) << err;
    ASSERT_TRUE(readWholeFile(path, 0, got, &err)) << err;
    EXPECT_EQ(got.size, 0u);
    std::filesystem::remove(path);
}

} // namespace
} // namespace s64v
