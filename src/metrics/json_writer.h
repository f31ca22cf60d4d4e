// Minimal streaming JSON writer (no external dependencies).
//
// Handles comma placement and string escaping so callers can't produce
// trailing commas or unescaped control characters; numbers are emitted in a
// locale-independent form that round-trips through the companion parser.
//
// A default-constructed writer builds the document in memory (str()). A
// writer opened on a FILE* streams it: whenever the buffer passes
// kFlushBytes it is written to the file, so memory stays bounded however
// large the document grows.
#ifndef SRC_METRICS_JSON_WRITER_H_
#define SRC_METRICS_JSON_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace hlrc {

class JsonWriter {
 public:
  static constexpr size_t kFlushBytes = 64 * 1024;

  JsonWriter() = default;
  // Streams to `sink`, which the caller opens and closes; call Flush() before
  // closing it.
  explicit JsonWriter(std::FILE* sink);

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Inside an object: emits the key; the next value call is its value.
  void Key(std::string_view k);

  void String(std::string_view v);
  // Int prints what "%" PRId64 would, and Double what "%.17g" would.
  void Int(int64_t v);
  void Double(double v);  // NaN and Inf print null: JSON has neither.
  void Bool(bool v);
  void Null();

  // Key/value in one call.
  void KV(std::string_view k, std::string_view v) { Key(k); String(v); }
  void KV(std::string_view k, const char* v) { Key(k); String(v); }
  void KV(std::string_view k, int64_t v) { Key(k); Int(v); }
  void KV(std::string_view k, int v) { Key(k); Int(v); }
  void KV(std::string_view k, double v) { Key(k); Double(v); }
  void KV(std::string_view k, bool v) { Key(k); Bool(v); }

  // The text not yet written to the sink: the whole document when there is
  // no sink.
  const std::string& str() const { return out_; }
  // Writes the buffered text to the sink and flushes it. Returns false if
  // this or any earlier write to the sink came up short.
  bool Flush();
  // Writes str() to `path`; returns false and fills `err` on I/O failure.
  bool WriteFile(const std::string& path, std::string* err) const;

  static std::string Escape(std::string_view s);

 private:
  void BeforeElement();
  void BeforeValue();
  void Drain();

  std::string out_;
  std::FILE* sink_ = nullptr;
  bool sink_failed_ = false;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_;
  bool have_key_ = false;
};

}  // namespace hlrc

#endif  // SRC_METRICS_JSON_WRITER_H_
