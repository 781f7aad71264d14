#include "html/html_lists.h"

#include <cctype>

#include "common/string_util.h"

namespace tegra::html {

namespace {

bool IsTagNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

/// Collapses internal whitespace runs and trims.
std::string CollapseWhitespace(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  bool pending = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending = !out.empty();
      continue;
    }
    if (pending) {
      out.push_back(' ');
      pending = false;
    }
    out.push_back(c);
  }
  return out;
}

/// Advances past a tag starting at `pos` ('<'); returns the position after
/// the closing '>'. Respects quoted attribute values. Returns html.size()
/// for a truncated tag.
size_t SkipTag(std::string_view html, size_t pos) {
  char quote = 0;
  for (size_t i = pos + 1; i < html.size(); ++i) {
    const char c = html[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '"' || c == '\'') {
      quote = c;
    } else if (c == '>') {
      return i + 1;
    }
  }
  return html.size();
}

/// Parses the tag at `pos`; sets name (lowercased) and closing flag.
/// Returns the end position of the tag.
size_t ParseTag(std::string_view html, size_t pos, std::string* name,
                bool* closing) {
  size_t i = pos + 1;
  *closing = (i < html.size() && html[i] == '/');
  if (*closing) ++i;
  size_t start = i;
  while (i < html.size() && IsTagNameChar(html[i])) ++i;
  *name = ToLower(html.substr(start, i - start));
  return SkipTag(html, pos);
}

}  // namespace

std::string DecodeEntityAt(std::string_view html, size_t* pos) {
  const size_t start = *pos;
  size_t semi = html.find(';', start);
  if (semi == std::string_view::npos || semi - start > 10) {
    ++(*pos);
    return "&";
  }
  std::string_view body = html.substr(start + 1, semi - start - 1);
  std::string decoded;
  if (body == "amp") {
    decoded = "&";
  } else if (body == "lt") {
    decoded = "<";
  } else if (body == "gt") {
    decoded = ">";
  } else if (body == "quot") {
    decoded = "\"";
  } else if (body == "apos" || body == "#39") {
    decoded = "'";
  } else if (body == "nbsp" || body == "#160") {
    decoded = " ";
  } else if (!body.empty() && body[0] == '#') {
    int code = 0;
    bool ok = body.size() > 1;
    for (size_t i = 1; i < body.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(body[i]))) {
        ok = false;
        break;
      }
      code = code * 10 + (body[i] - '0');
    }
    if (ok && code >= 32 && code < 127) {
      decoded = std::string(1, static_cast<char>(code));
    } else if (ok) {
      decoded = " ";  // Out-of-ASCII references become separators.
    } else {
      ++(*pos);
      return "&";
    }
  } else {
    ++(*pos);
    return "&";
  }
  *pos = semi + 1;
  return decoded;
}

std::string StripMarkup(std::string_view html) {
  std::string out;
  out.reserve(html.size());
  size_t i = 0;
  while (i < html.size()) {
    const char c = html[i];
    if (c == '<') {
      // Comments.
      if (html.substr(i, 4) == "<!--") {
        const size_t end = html.find("-->", i);
        i = end == std::string_view::npos ? html.size() : end + 3;
        continue;
      }
      std::string name;
      bool closing = false;
      const size_t next = ParseTag(html, i, &name, &closing);
      if (!closing &&
          (name == "script" || name == "style" || name == "sup")) {
        // <sup> content is almost always a footnote/reference marker
        // ("[1]"), which is noise for table extraction.
        const std::string close = "</" + name;
        const size_t end = ToLower(html).find(close, next);
        i = end == std::string_view::npos ? html.size()
                                          : SkipTag(html, end);
        continue;
      }
      if (name == "br" || name == "p" || name == "div" || name == "td" ||
          name == "li" || name == "tr") {
        out.push_back(' ');  // Block-ish boundaries separate words.
      }
      i = next;
    } else if (c == '&') {
      out += DecodeEntityAt(html, &i);
    } else {
      out.push_back(c);
      ++i;
    }
  }
  return CollapseWhitespace(out);
}

std::vector<HtmlList> ExtractHtmlLists(std::string_view html) {
  struct OpenList {
    HtmlList list;
    std::string item;
    bool item_open = false;
  };

  std::vector<HtmlList> results;
  std::vector<OpenList> stack;

  auto close_item = [&](OpenList* open) {
    if (!open->item_open) return;
    std::string text = CollapseWhitespace(open->item);
    if (!text.empty()) open->list.items.push_back(std::move(text));
    open->item.clear();
    open->item_open = false;
  };
  auto close_list = [&] {
    close_item(&stack.back());
    if (!stack.back().list.items.empty()) {
      results.push_back(std::move(stack.back().list));
    }
    stack.pop_back();
  };

  size_t i = 0;
  while (i < html.size()) {
    const char c = html[i];
    if (c == '<') {
      if (html.substr(i, 4) == "<!--") {
        const size_t end = html.find("-->", i);
        i = end == std::string_view::npos ? html.size() : end + 3;
        continue;
      }
      std::string name;
      bool closing = false;
      const size_t next = ParseTag(html, i, &name, &closing);
      if (!closing &&
          (name == "script" || name == "style" || name == "sup")) {
        // Skip raw content (case-insensitive close search); <sup> holds
        // footnote markers.
        const std::string close = "</" + name;
        size_t scan = next;
        size_t end = std::string_view::npos;
        while (scan < html.size()) {
          const size_t lt = html.find('<', scan);
          if (lt == std::string_view::npos) break;
          if (ToLower(html.substr(lt, close.size())) == close) {
            end = lt;
            break;
          }
          scan = lt + 1;
        }
        i = end == std::string_view::npos ? html.size() : SkipTag(html, end);
        continue;
      }
      if (name == "ul" || name == "ol") {
        if (!closing) {
          OpenList open;
          open.list.tag = name;
          stack.push_back(std::move(open));
        } else if (!stack.empty()) {
          close_list();
        }
      } else if (name == "li" && !stack.empty()) {
        if (!closing) {
          close_item(&stack.back());  // Implied </li>.
          stack.back().item_open = true;
        } else {
          close_item(&stack.back());
        }
      } else if (!stack.empty() && stack.back().item_open &&
                 (name == "br" || name == "p" || name == "div")) {
        stack.back().item.push_back(' ');
      }
      i = next;
    } else if (c == '&') {
      std::string decoded = DecodeEntityAt(html, &i);
      if (!stack.empty() && stack.back().item_open) {
        stack.back().item += decoded;
      }
    } else {
      if (!stack.empty() && stack.back().item_open) {
        stack.back().item.push_back(c);
      }
      ++i;
    }
  }
  // Unclosed lists terminate at end of input.
  while (!stack.empty()) close_list();
  return results;
}

}  // namespace tegra::html
