#include "harness/journal.h"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "sim/logging.h"

namespace piranha {

std::uint64_t
fnv1a64(const void *data, std::size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 14695981039346656037ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

std::string
JobJournal::filePath(const std::string &dir)
{
    return dir + "/journal.log";
}

bool
JobJournal::exists(const std::string &dir)
{
    struct stat st;
    return ::stat(filePath(dir).c_str(), &st) == 0 && st.st_size > 0;
}

namespace {

std::string
formatRecord(char tag, const std::string &payload)
{
    char head[64];
    std::snprintf(head, sizeof(head), "%c %zu %016llx ", tag,
                  payload.size(),
                  static_cast<unsigned long long>(
                      fnv1a64(payload.data(), payload.size())));
    return head + payload + "\n";
}

/**
 * Parse one record at @p pos; advances @p pos past it on success.
 * Returns false on any framing, length, or checksum violation — the
 * caller must treat the rest of the file as damaged.
 */
bool
parseRecord(const std::string &text, std::size_t &pos, char &tag,
            std::string &payload)
{
    std::size_t p = pos;
    if (p >= text.size())
        return false;
    tag = text[p];
    if (tag != 'H' && tag != 'D')
        return false;
    ++p;
    if (p >= text.size() || text[p] != ' ')
        return false;
    ++p;
    std::size_t len = 0;
    bool any_digit = false;
    while (p < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[p]))) {
        len = len * 10 + static_cast<std::size_t>(text[p] - '0');
        ++p;
        any_digit = true;
        if (len > text.size())
            return false; // cannot possibly fit: corrupt length
    }
    if (!any_digit || p >= text.size() || text[p] != ' ')
        return false;
    ++p;
    if (p + 16 > text.size())
        return false;
    std::uint64_t want = 0;
    for (int i = 0; i < 16; ++i) {
        char c = text[p + i];
        unsigned d;
        if (c >= '0' && c <= '9')
            d = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = static_cast<unsigned>(c - 'a') + 10;
        else
            return false;
        want = (want << 4) | d;
    }
    p += 16;
    if (p >= text.size() || text[p] != ' ')
        return false;
    ++p;
    if (p + len + 1 > text.size())
        return false; // payload (or its trailing newline) cut off
    if (text[p + len] != '\n')
        return false;
    if (fnv1a64(text.data() + p, len) != want)
        return false;
    payload.assign(text, p, len);
    pos = p + len + 1;
    return true;
}

} // namespace

JobJournal::Recovery
JobJournal::load(const std::string &dir)
{
    Recovery rec;
    std::ifstream is(filePath(dir), std::ios::binary);
    if (!is)
        return rec;
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string text = buf.str();

    std::size_t pos = 0;
    while (pos < text.size()) {
        char tag;
        std::string payload;
        if (!parseRecord(text, pos, tag, payload)) {
            rec.truncated = true;
            break;
        }
        JsonValue v;
        try {
            v = parseJson(payload);
            if (tag == 'D') {
                JobResult jr = jobResultFromJson(v);
                rec.done[jr.label] = std::move(jr);
            }
        } catch (const std::exception &) {
            // Checksummed but unparseable or off the schema: same
            // treatment as a cut record — nothing after it can be
            // trusted.
            rec.truncated = true;
            break;
        }
        if (tag == 'H') {
            rec.version =
                static_cast<unsigned>(v.at("version").asNumber());
            if (rec.version != kVersion)
                throw std::runtime_error(strFormat(
                    "journal %s: unsupported version %u (expected %u)",
                    filePath(dir).c_str(), rec.version, kVersion));
            rec.sweepName = v.at("sweep").asString();
        }
    }
    return rec;
}

JobJournal::JobJournal(const std::string &dir,
                       const std::string &sweep_name, bool append)
    : _path(filePath(dir))
{
    // Create the directory chain without depending on <filesystem>
    // in this low-level path: one level is all the harness uses.
    ::mkdir(dir.c_str(), 0777);

    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (!append)
        flags |= O_TRUNC;
    _fd = ::open(_path.c_str(), flags, 0666);
    if (_fd < 0)
        throw std::runtime_error(strFormat(
            "cannot open journal %s: %s", _path.c_str(),
            std::strerror(errno)));

    struct stat st;
    if (::fstat(_fd, &st) == 0 && st.st_size == 0) {
        JsonValue h = JsonValue::object();
        h.set("version", static_cast<double>(kVersion));
        h.set("sweep", sweep_name);
        writeRecord('H', h.dump(0));
    }
}

JobJournal::~JobJournal()
{
    if (_fd >= 0)
        ::close(_fd);
}

void
JobJournal::writeRecord(char tag, const std::string &payload)
{
    std::string rec = formatRecord(tag, payload);
    // One write() call per record: O_APPEND makes the record land
    // atomically at the tail even with a forked worker still holding
    // the fd, and a crash mid-write can only damage this record.
    std::size_t off = 0;
    while (off < rec.size()) {
        ssize_t n = ::write(_fd, rec.data() + off, rec.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("journal %s: write failed: %s", _path.c_str(),
                 std::strerror(errno));
            return;
        }
        off += static_cast<std::size_t>(n);
    }
    // Durability is the contract: a recorded result must survive a
    // supervisor kill immediately after.
    ::fsync(_fd);
}

void
JobJournal::recordDone(const JobResult &jr, bool include_stat_tree)
{
    writeRecord('D', jobResultToJson(jr, include_stat_tree).dump(0));
}

} // namespace piranha
