// Pluggable line sinks for the observability layer.
//
// A Sink receives fully serialized JSONL lines (one JSON document per
// call, no trailing newline). Emitters check for a null sink before doing
// any serialization work, which is what makes instrumentation free when
// nothing is attached.
#pragma once

#include <iosfwd>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace xbarlife::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  /// Writes one serialized JSON document as a line.
  virtual void write(const std::string& line) = 0;
  virtual void flush() {}
};

/// Appends lines to a caller-owned std::ostream (e.g. std::cout).
class StreamSink : public Sink {
 public:
  explicit StreamSink(std::ostream& out) : out_(&out) {}
  void write(const std::string& line) override;
  void flush() override;

 private:
  std::ostream* out_;
  std::mutex mu_;
};

/// Owns a file opened for truncating write; throws IoError when the file
/// cannot be opened or a write fails.
class JsonlFileSink : public Sink {
 public:
  explicit JsonlFileSink(const std::string& path);
  void write(const std::string& line) override;
  void flush() override;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mu_;
};

/// Captures lines in memory, for tests and for deterministic replay of
/// per-job traces (see core::ScenarioRunner).
class MemorySink : public Sink {
 public:
  void write(const std::string& line) override;
  const std::vector<std::string>& lines() const { return lines_; }
  void clear() { lines_.clear(); }

 private:
  std::vector<std::string> lines_;
  std::mutex mu_;
};

}  // namespace xbarlife::obs
