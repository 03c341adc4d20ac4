#include "sim/checkpoint.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "sim/parse.h"

namespace opera::sim {

namespace {

// FNV-1a over raw bytes — the file checksum (and the string mixer's inner
// hash). Distinct from Fingerprint's chained mixer on purpose: the file
// checksum guards bytes on disk, the fingerprint guards simulation state.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string format_error(std::string_view name, std::size_t line,
                         const std::string& message) {
  return std::string(name) + ":" + std::to_string(line) + ": " + message;
}

// Splits "key rest-of-line". A line with no space is a bare key ("").
CheckpointEntry split_entry(std::string_view line) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return {std::string(line), std::string()};
  return {std::string(line.substr(0, sp)), std::string(line.substr(sp + 1))};
}

}  // namespace

void Fingerprint::mix_double(double v) { mix_u64(std::bit_cast<std::uint64_t>(v)); }

void Fingerprint::mix_bytes(std::string_view bytes) {
  mix_u64(fnv1a(bytes));
  mix_u64(bytes.size());
}

const std::string* find_entry(const std::vector<CheckpointEntry>& section,
                              std::string_view key) {
  for (const auto& e : section) {
    if (e.key == key) return &e.value;
  }
  return nullptr;
}

std::string write_checkpoint_text(const CheckpointData& data) {
  std::string out;
  out.reserve(4096 + data.flows.size() * 32);
  char buf[128];
  std::snprintf(buf, sizeof buf, "OPERA-CHECKPOINT v%d\n", data.version);
  out += buf;
  const auto emit_section = [&out](const char* header,
                                   const std::vector<CheckpointEntry>& entries) {
    out += header;
    out += '\n';
    for (const auto& e : entries) {
      out += e.key;
      if (!e.value.empty()) {
        out += ' ';
        out += e.value;
      }
      out += '\n';
    }
  };
  emit_section("[run]", data.run);
  emit_section("[config]", data.config);
  std::snprintf(buf, sizeof buf, "[flows] %zu\n", data.flows.size());
  out += buf;
  for (const auto& f : data.flows) {
    std::snprintf(buf, sizeof buf, "%" PRId64 " %d %d %" PRId64 "\n", f.start_ps,
                  f.src_host, f.dst_host, f.size_bytes);
    out += buf;
  }
  emit_section("[state]", data.state);
  out += "[end]\n";
  std::snprintf(buf, sizeof buf, "checksum %016" PRIx64 "\n", fnv1a(out));
  out += buf;
  return out;
}

CheckpointParseResult parse_checkpoint(std::string_view text, std::string_view name) {
  CheckpointParseResult result;
  CheckpointData& data = result.data;

  // Pass 1: split into lines, remembering byte offsets so the checksum
  // can be verified over the exact prefix it was computed from.
  struct Line {
    std::string_view text;
    std::size_t end_offset;  // offset one past this line's trailing newline
  };
  std::vector<Line> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool unterminated = nl == std::string_view::npos;
    if (unterminated) nl = text.size();
    lines.push_back({text.substr(pos, nl - pos), unterminated ? nl : nl + 1});
    pos = unterminated ? nl : nl + 1;
  }

  if (lines.empty()) {
    result.error = format_error(name, 1, "empty checkpoint file");
    return result;
  }

  // Header + version gate.
  {
    const std::string_view header = lines[0].text;
    constexpr std::string_view kMagic = "OPERA-CHECKPOINT v";
    if (header.substr(0, kMagic.size()) != kMagic) {
      result.error = format_error(name, 1,
                                  "not a checkpoint file (expected "
                                  "'OPERA-CHECKPOINT v<N>' header)");
      return result;
    }
    std::int64_t version = 0;
    if (!parse_number(header.substr(kMagic.size()), &version)) {
      result.error = format_error(name, 1, "malformed version in header");
      return result;
    }
    if (version != kCheckpointSchemaVersion) {
      result.error = format_error(
          name, 1,
          "checkpoint schema v" + std::to_string(version) +
              " is not supported (this build reads v" +
              std::to_string(kCheckpointSchemaVersion) +
              "); re-run from scratch or use a matching binary");
      return result;
    }
    data.version = static_cast<int>(version);
  }

  // Checksum gate: the last line must be `checksum <hex>` over everything
  // before it. Checked before the section grammar so truncation and
  // corruption report as exactly that, not as a confusing grammar error.
  if (lines.size() < 2 ||
      lines.back().text.substr(0, 9) != std::string_view("checksum ")) {
    result.error = format_error(
        name, lines.size(),
        "truncated checkpoint: missing trailing 'checksum' line (the file "
        "was cut off mid-write; use the previous checkpoint)");
    return result;
  }
  {
    const std::size_t checksum_lineno = lines.size();
    std::uint64_t stated = 0;
    if (!parse_number(lines.back().text.substr(9), &stated, 16)) {
      result.error =
          format_error(name, checksum_lineno, "malformed checksum value");
      return result;
    }
    const std::size_t covered_end = lines[lines.size() - 2].end_offset;
    const std::uint64_t actual = fnv1a(text.substr(0, covered_end));
    if (stated != actual) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "checksum mismatch (file says %016" PRIx64
                    ", content hashes to %016" PRIx64 ") - corrupted checkpoint",
                    stated, actual);
      result.error = format_error(name, checksum_lineno, buf);
      return result;
    }
  }

  // Section grammar. `[flows] <count>` announces exactly `count` flow
  // lines; every other section is key/value until the next '[' line.
  enum class Section { kNone, kRun, kConfig, kState, kDone };
  Section section = Section::kNone;
  std::size_t flows_expected = 0;
  bool saw_end = false;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    const std::size_t lineno = i + 1;
    const std::string_view line = lines[i].text;
    if (line.empty()) continue;
    if (saw_end) {
      result.error =
          format_error(name, lineno, "content after [end] (before checksum)");
      return result;
    }
    if (line[0] == '[') {
      if (line == "[run]") {
        section = Section::kRun;
      } else if (line == "[config]") {
        section = Section::kConfig;
      } else if (line.substr(0, 7) == std::string_view("[flows]")) {
        if (line.size() < 9 || !parse_number(line.substr(8), &flows_expected)) {
          result.error = format_error(name, lineno,
                                      "malformed [flows] header (expected "
                                      "'[flows] <count>')");
          return result;
        }
        // The count is untrusted: reserve no more than the lines left.
        data.flows.reserve(std::min(flows_expected, lines.size() - i));
        section = Section::kNone;  // flow lines handled below
        // Consume exactly `count` flow lines.
        for (std::size_t k = 0; k < flows_expected; ++k) {
          ++i;
          if (i + 1 >= lines.size()) {
            result.error = format_error(
                name, i + 1,
                "flow list cut short (expected " +
                    std::to_string(flows_expected) + " flows, got " +
                    std::to_string(k) + ")");
            return result;
          }
          const std::string_view fl = lines[i].text;
          CheckpointFlow flow;
          // start_ps src dst size_bytes
          std::size_t p = 0;
          const auto next_field = [&fl, &p]() -> std::string_view {
            while (p < fl.size() && fl[p] == ' ') ++p;
            const std::size_t start = p;
            while (p < fl.size() && fl[p] != ' ') ++p;
            return fl.substr(start, p - start);
          };
          if (!parse_number(next_field(), &flow.start_ps) ||
              !parse_number(next_field(), &flow.src_host) ||
              !parse_number(next_field(), &flow.dst_host) ||
              !parse_number(next_field(), &flow.size_bytes) ||
              !next_field().empty()) {
            result.error = format_error(
                name, i + 1,
                "malformed flow line (expected 'start_ps src dst size_bytes')");
            return result;
          }
          data.flows.push_back(flow);
        }
      } else if (line == "[state]") {
        section = Section::kState;
      } else if (line == "[end]") {
        saw_end = true;
        section = Section::kDone;
      } else {
        result.error = format_error(
            name, lineno, "unknown section '" + std::string(line) + "'");
        return result;
      }
      continue;
    }
    switch (section) {
      case Section::kRun:
        data.run.push_back(split_entry(line));
        break;
      case Section::kConfig:
        data.config.push_back(split_entry(line));
        break;
      case Section::kState:
        data.state.push_back(split_entry(line));
        break;
      default:
        result.error = format_error(
            name, lineno, "content outside any section: '" + std::string(line) + "'");
        return result;
    }
  }
  if (!saw_end) {
    result.error = format_error(name, lines.size(),
                                "truncated checkpoint: missing [end] marker");
    return result;
  }
  return result;
}

CheckpointParseResult load_checkpoint(const std::string& path) {
  CheckpointParseResult result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    result.error = path + ": cannot open checkpoint: " + std::strerror(errno);
    return result;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    result.error = path + ": read error";
    return result;
  }
  return parse_checkpoint(text, path);
}

std::string save_checkpoint(const std::string& path, const CheckpointData& data) {
  const std::string text = write_checkpoint_text(data);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return tmp + ": cannot open for writing: " + std::strerror(errno);
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return tmp + ": write failed";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    std::remove(tmp.c_str());
    return path + ": rename failed: " + err;
  }
  return {};
}

}  // namespace opera::sim
