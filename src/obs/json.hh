/**
 * @file
 * Minimal JSON output for the observability exporters: a streaming
 * writer with deterministic member order (insertion order — the
 * stats schema promises stable key order). The tests parse what it
 * writes with tests/support/json_parser.hh.
 */

#ifndef FLASHCACHE_OBS_JSON_HH
#define FLASHCACHE_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace flashcache {
namespace obs {

/**
 * Streaming JSON writer. Members appear exactly in emission order,
 * which is what makes the exported schemas stable. Misuse (a value
 * with no pending key inside an object, unbalanced end calls) is a
 * programming error and panics.
 */
class JsonWriter
{
  public:
    /** @param indent Spaces per nesting level; 0 = compact. */
    explicit JsonWriter(std::ostream& os, int indent = 2);

    /** The writer must be balanced (all scopes closed) when done. */
    ~JsonWriter();

    JsonWriter(const JsonWriter&) = delete;
    JsonWriter& operator=(const JsonWriter&) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit the member key for the next value (objects only). */
    void key(std::string_view k);

    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    /** No boolean values: a bool would otherwise print as 0 or 1. */
    void value(bool v) = delete;
    void value(std::string_view v);
    void value(const char* v) { value(std::string_view(v)); }

    /// @name One-call members: key + value.
    /// @{
    template <typename T>
    void
    member(std::string_view k, T v)
    {
        key(k);
        value(v);
    }
    /// @}

  private:
    enum class Scope : std::uint8_t { Object, Array };

    /** Comma/newline bookkeeping before any value or key. */
    void preValue();
    void newlineIndent();
    void writeEscaped(std::string_view s);

    std::ostream* os_;
    int indent_;
    std::vector<Scope> stack_;
    bool firstInScope_ = true;
    bool keyPending_ = false;
};

} // namespace obs
} // namespace flashcache

#endif // FLASHCACHE_OBS_JSON_HH
