#include "io/solution_io.hpp"

#include <charconv>
#include <concepts>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "io/atomic_file.hpp"
#include "io/parse_error.hpp"
#include "util/fault_injector.hpp"
#include "util/strings.hpp"

namespace mrtpl::io {

namespace {

/// Line-counting cursor shared by the solution and guide readers so every
/// failure carries (source, line, token) — the same contract design_io
/// honors via its LineReader.
struct Cursor {
  std::istream& is;
  std::string source;
  int line_no = 0;

  bool next(std::string& line) {
    if (!std::getline(is, line)) return false;
    ++line_no;
    return true;
  }

  [[noreturn]] void fail(const std::string& reason) const {
    throw ParseError(source, line_no, "", reason);
  }
  [[noreturn]] void fail_token(const std::string& token,
                               const std::string& reason) const {
    throw ParseError(source, line_no, token, reason);
  }
};

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  return tokens;
}

int to_int(const Cursor& c, const std::string& tok) {
  try {
    size_t pos = 0;
    const int v = std::stoi(tok, &pos);
    if (pos != tok.size()) throw std::invalid_argument(tok);
    return v;
  } catch (const std::exception&) {
    c.fail_token(tok, "expected integer");
  }
}

/// Append-only text buffer; integers are formatted with std::to_chars.
class TextBuffer {
 public:
  TextBuffer& operator<<(std::string_view s) {
    text_.append(s);
    return *this;
  }
  TextBuffer& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  template <std::integral T>
  TextBuffer& operator<<(T value) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    text_.append(buf, end);
    return *this;
  }
  std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

}  // namespace

std::string solution_to_string(const grid::RoutingGrid& grid,
                               const grid::Solution& solution) {
  TextBuffer out;
  out << "mrtpl-solution 1\n";
  for (const auto& route : solution.routes) {
    if (route.net == db::kNoNet && route.empty()) continue;
    out << "route " << route.net << ' ' << (route.routed ? 1 : 0) << ' '
        << route.paths.size() << '\n';
    for (const auto& path : route.paths) {
      out << "path " << path.size();
      for (const auto v : path) {
        const grid::VertexLoc l = grid.loc(v);
        out << ' ' << l.layer << ' ' << l.x << ' ' << l.y;
      }
      out << '\n';
    }
    const auto verts = route.vertices();
    out << "masks " << verts.size();
    for (const auto v : verts) {
      const grid::VertexLoc l = grid.loc(v);
      out << ' ' << l.layer << ' ' << l.x << ' ' << l.y << ' '
          << static_cast<int>(grid.mask(v));
    }
    out << '\n';
  }
  out << "end\n";
  return out.take();
}

void write_solution(std::ostream& os, const grid::RoutingGrid& grid,
                    const grid::Solution& solution) {
  const std::string text = solution_to_string(grid, solution);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

grid::Solution read_solution(std::istream& is, grid::RoutingGrid& grid,
                             const std::string& source) {
  Cursor cur{is, source};
  grid::Solution solution;
  solution.routes.resize(static_cast<size_t>(grid.design().num_nets()));

  auto vertex_of = [&](int layer, int x, int y) {
    if (layer < 0 || layer >= grid.num_layers() || x < 0 || x >= grid.size_x() ||
        y < 0 || y >= grid.size_y())
      cur.fail(util::format("vertex (%d,%d,%d) outside grid", layer, x, y));
    return grid.vertex(layer, x, y);
  };

  std::string line;
  if (!cur.next(line) ||
      tokenize(line) != std::vector<std::string>{"mrtpl-solution", "1"})
    cur.fail("missing 'mrtpl-solution 1' header");

  grid::NetRoute* current = nullptr;
  int paths_expected = 0;
  bool ended = false;
  while (cur.next(line)) {
    const auto t = tokenize(line);
    if (t.empty()) continue;
    if (t[0] == "end") {
      ended = true;
      break;
    }
    if (t[0] == "route") {
      if (t.size() != 4) cur.fail("expected 'route net routed num_paths'");
      const int net = to_int(cur, t[1]);
      if (net < 0 || net >= grid.design().num_nets())
        cur.fail_token(t[1], "route for unknown net");
      current = &solution.routes[static_cast<size_t>(net)];
      current->net = net;
      current->routed = to_int(cur, t[2]) != 0;
      paths_expected = to_int(cur, t[3]);
    } else if (t[0] == "path") {
      if (current == nullptr) cur.fail("path before route");
      if (paths_expected <= 0) cur.fail("more paths than declared");
      const int n = to_int(cur, t[1]);
      if (static_cast<int>(t.size()) != 2 + 3 * n)
        cur.fail("path token count mismatch");
      std::vector<grid::VertexId> path;
      path.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) {
        const size_t base = 2 + 3 * static_cast<size_t>(i);
        path.push_back(
            vertex_of(to_int(cur, t[base]), to_int(cur, t[base + 1]),
                      to_int(cur, t[base + 2])));
      }
      current->paths.push_back(std::move(path));
      --paths_expected;
    } else if (t[0] == "masks") {
      if (current == nullptr) cur.fail("masks before route");
      const int n = to_int(cur, t[1]);
      if (static_cast<int>(t.size()) != 2 + 4 * n)
        cur.fail("masks token count mismatch");
      for (int i = 0; i < n; ++i) {
        const size_t base = 2 + 4 * static_cast<size_t>(i);
        const grid::VertexId v =
            vertex_of(to_int(cur, t[base]), to_int(cur, t[base + 1]),
                      to_int(cur, t[base + 2]));
        const int mask = to_int(cur, t[base + 3]);
        if (mask < -1 || mask >= grid::kNumMasks)
          cur.fail_token(t[base + 3], "bad mask value");
        grid.commit(v, current->net, static_cast<grid::Mask>(mask));
      }
    } else {
      cur.fail("unknown directive '" + t[0] + "'");
    }
  }
  if (!ended) cur.fail("missing 'end'");
  return solution;
}

grid::Solution solution_from_string(const std::string& text, grid::RoutingGrid& grid) {
  std::istringstream ss(text);
  return read_solution(ss, grid, "<string>");
}

void save_solution(const std::string& path, const grid::RoutingGrid& grid,
                   const grid::Solution& solution) {
  // Crash-safe: a killed process leaves the previous solution (or no
  // file), never a truncated one (atomic_file.hpp).
  atomic_write_file(path, solution_to_string(grid, solution));
}

grid::Solution load_solution(const std::string& path, grid::RoutingGrid& grid) {
  std::ifstream is(path);
  if (!is) throw ParseError(path, 0, "", "cannot open file");
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string text = buffer.str();
  util::FaultInjector::maybe_corrupt_io(text);
  std::istringstream ss(text);
  return read_solution(ss, grid, path);
}

void write_guides(std::ostream& os, const global::GuideSet& guides) {
  os << "mrtpl-guides 1\n";
  for (const auto& g : guides) {
    os << "guide " << g.net << ' ' << g.boxes.size();
    for (const auto& b : g.boxes)
      os << ' ' << b.lo.x << ' ' << b.lo.y << ' ' << b.hi.x << ' ' << b.hi.y;
    os << "\n";
  }
  os << "end\n";
}

global::GuideSet read_guides(std::istream& is, const std::string& source) {
  Cursor cur{is, source};
  global::GuideSet guides;
  std::string line;
  if (!cur.next(line) ||
      tokenize(line) != std::vector<std::string>{"mrtpl-guides", "1"})
    cur.fail("missing 'mrtpl-guides 1' header");
  bool ended = false;
  while (cur.next(line)) {
    const auto t = tokenize(line);
    if (t.empty()) continue;
    if (t[0] == "end") {
      ended = true;
      break;
    }
    if (t[0] != "guide") cur.fail("unknown directive '" + t[0] + "'");
    if (t.size() < 3) cur.fail("expected 'guide net num_boxes ...'");
    global::NetGuide g;
    g.net = to_int(cur, t[1]);
    const int n = to_int(cur, t[2]);
    if (static_cast<int>(t.size()) != 3 + 4 * n)
      cur.fail("guide token count mismatch");
    for (int i = 0; i < n; ++i) {
      const size_t base = 3 + 4 * static_cast<size_t>(i);
      g.boxes.push_back({to_int(cur, t[base]), to_int(cur, t[base + 1]),
                         to_int(cur, t[base + 2]), to_int(cur, t[base + 3])});
    }
    guides.push_back(std::move(g));
  }
  if (!ended) cur.fail("missing 'end'");
  return guides;
}

std::string guides_to_string(const global::GuideSet& guides) {
  std::ostringstream ss;
  write_guides(ss, guides);
  return ss.str();
}

global::GuideSet guides_from_string(const std::string& text) {
  std::istringstream ss(text);
  return read_guides(ss, "<string>");
}

}  // namespace mrtpl::io
