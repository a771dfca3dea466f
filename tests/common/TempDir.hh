/** A scratch directory for tests that write files. */

#ifndef SBORAM_TESTS_TEMPDIR_HH
#define SBORAM_TESTS_TEMPDIR_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

namespace sboram::test {

/** A fresh /tmp directory, removed with its files on destruction. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/sbtest-XXXXXX";
        const char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        _path = d ? d : "";
    }

    ~TempDir()
    {
        for (const std::string &name : entries())
            ::unlink((_path + "/" + name).c_str());
        ::rmdir(_path.c_str());
    }

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return _path; }

    /** File names in the directory, "." and ".." excluded. */
    std::vector<std::string>
    entries() const
    {
        std::vector<std::string> names;
        if (DIR *d = opendir(_path.c_str())) {
            while (dirent *e = readdir(d)) {
                const std::string name = e->d_name;
                if (name != "." && name != "..")
                    names.push_back(name);
            }
            closedir(d);
        }
        return names;
    }

  private:
    std::string _path;
};

} // namespace sboram::test

#endif // SBORAM_TESTS_TEMPDIR_HH
