#include "obs/sink.hpp"

#include <ostream>

#include "common/error.hpp"

namespace xbarlife::obs {

void StreamSink::write(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  *out_ << line << '\n';
}

void StreamSink::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  out_->flush();
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : path_(path), out_(path, std::ios::trunc) {
  if (!out_) {
    throw IoError("cannot open trace/json file for writing: " + path);
  }
}

void JsonlFileSink::write(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  if (!out_) {
    throw IoError("write failed: " + path_);
  }
}

void JsonlFileSink::flush() {
  const std::lock_guard<std::mutex> lock(mu_);
  out_.flush();
}

void MemorySink::write(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(line);
}

}  // namespace xbarlife::obs
