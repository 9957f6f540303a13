/**
 * @file
 * Key tables for the `key = value` config format: each key family
 * (exploration keys, `campaign.*`, `phase[N].*`, `sweep.*`) is one
 * ordered ConfigTable.
 *
 * An entry names a key once and binds it to its field:
 *
 *     {"num_ways", [](auto &c) -> auto & { return c.env.cache.numWays; }},
 *
 * The field's type picks the value syntax (parseConfigValue /
 * renderConfigValue below, built on the strict parsers of
 * core/config_parser.hpp), and parsing and rendering walk the same
 * entries. Table order is therefore render order, which is wire
 * format: job blobs embed the rendered text and grid-manifest hashes
 * cover the blobs.
 *
 * Rendering leaves out an unset optional, an empty list, and an empty
 * string whose default is also empty, and rejects strings the format
 * cannot carry.
 */

#ifndef AUTOCAT_CORE_CONFIG_TABLE_HPP
#define AUTOCAT_CORE_CONFIG_TABLE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.hpp"
#include "cache/replacement.hpp"
#include "core/config_parser.hpp"
#include "detect/detector_factory.hpp"

namespace autocat {

// ------------------------------------------------------- value syntax

/** Strict parse of @p text into @p out; the field's type picks the
 *  syntax. Throws std::invalid_argument naming @p key. */
template <typename T>
void
parseConfigValue(const std::string &text, const std::string &key, T &out)
{
    if constexpr (std::is_same_v<T, bool>)
        out = parseConfigBool(text, key);
    else if constexpr (std::is_same_v<T, unsigned>)
        out = parseConfigU32(text, key);
    else if constexpr (std::is_same_v<T, int>)
        out = parseConfigInt(text, key);
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        out = parseConfigUint(text, key);
    else if constexpr (std::is_same_v<T, double>)
        out = parseConfigDouble(text, key);
    else if constexpr (std::is_same_v<T, std::string>)
        out = text;
    else if constexpr (std::is_same_v<T, ReplPolicy>)
        out = replPolicyFromString(text);
    else if constexpr (std::is_same_v<T, PrefetcherKind>)
        out = prefetcherFromString(text);
    else if constexpr (std::is_same_v<T, InclusionPolicy>)
        out = inclusionFromString(text);
    else
        out = detectorModeFromString(text);
}

template <typename T>
void
parseConfigValue(const std::string &text, const std::string &key,
                 std::optional<T> &out)
{
    T value{};
    parseConfigValue(text, key, value);
    out = value;
}

/** Split a comma-separated list; empty items — including the one a
 *  trailing comma leaves behind — are malformed. */
std::vector<std::string> splitConfigList(const std::string &text,
                                         const std::string &key);

template <typename T>
void
parseConfigValue(const std::string &text, const std::string &key,
                 std::vector<T> &out)
{
    out.clear();
    for (const std::string &item : splitConfigList(text, key))
        parseConfigValue(item, key, out.emplace_back());
}

/**
 * '#' starts a comment anywhere in a line, '\n' would inject a config
 * line, and values are whitespace-trimmed on parse: a string holding
 * any of them would silently re-parse changed instead of
 * round-tripping, so rendering it throws std::invalid_argument.
 */
std::string renderConfigString(const std::string &value,
                               const std::string &key);

/** Render @p value in the syntax parseConfigValue reads back. */
template <typename T>
std::string
renderConfigValue(const T &value, const std::string &key)
{
    if constexpr (std::is_same_v<T, bool>)
        return value ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        return renderConfigDouble(value);
    else if constexpr (std::is_integral_v<T>)
        return std::to_string(value);
    else if constexpr (std::is_same_v<T, std::string>)
        return renderConfigString(value, key);
    else if constexpr (std::is_same_v<T, ReplPolicy>)
        return replPolicyName(value);
    else if constexpr (std::is_same_v<T, PrefetcherKind>)
        return prefetcherName(value);
    else if constexpr (std::is_same_v<T, InclusionPolicy>)
        return inclusionName(value);
    else
        return detectorModeName(value);
}

template <typename T>
std::string
renderConfigValue(const std::optional<T> &value, const std::string &key)
{
    return renderConfigValue(*value, key);
}

/** ", "-joined items; an item holding the ',' separator throws. */
template <typename T>
std::string
renderConfigValue(const std::vector<T> &items, const std::string &key)
{
    std::string text;
    for (const T &item : items) {
        const std::string rendered = renderConfigValue(item, key);
        if (rendered.find(',') != std::string::npos) {
            throw std::invalid_argument(
                "config: list item of " + key +
                " is not representable in the config format: '" +
                rendered + "'");
        }
        text += (text.empty() ? "" : ", ") + rendered;
    }
    return text;
}

/** True for the values rendering may leave out: an empty string or
 *  list and an unset optional. */
template <typename T>
bool
isEmptyConfigValue(const T &value)
{
    if constexpr (std::is_same_v<T, std::string>)
        return value.empty();
    else
        return false;
}

template <typename T>
bool
isEmptyConfigValue(const std::vector<T> &value)
{
    return value.empty();
}

template <typename T>
bool
isEmptyConfigValue(const std::optional<T> &value)
{
    return !value;
}

/** A check bounding a numeric key to [@p lo, @p hi]. */
inline auto
configRange(long long lo, long long hi = std::numeric_limits<long long>::max())
{
    return [lo, hi](double value, const std::string &key) {
        if (value >= lo && value <= hi)
            return;
        throw std::invalid_argument(
            "config: " + key + " must be " +
            (hi == std::numeric_limits<long long>::max()
                 ? ">= " + std::to_string(lo)
                 : "in [" + std::to_string(lo) + ", " + std::to_string(hi) +
                       "]"));
    };
}

/**
 * Split @p name as `<family>[N].<field>`: false when @p name is outside
 * the family; std::invalid_argument (naming @p key) when it is
 * malformed or N >= @p limit.
 */
bool splitIndexedConfigKey(const std::string &name, const std::string &family,
                           std::size_t limit, const std::string &key,
                           std::size_t &index, std::string &field);

// --------------------------------------------------------------- table

/** One key family: ordered entries over a config struct @p Cfg. */
template <typename Cfg>
class ConfigTable
{
  public:
    /** Consume @p key — called @p name within this table — or return
     *  false when the entry does not own it. A field binding is only
     *  called with its own name. */
    using ApplyFn = std::function<bool(Cfg &cfg, const std::string &name,
                                       const std::string &key,
                                       const std::string &value)>;

    /** Append the entry's lines, each key prefixed by @p prefix. */
    using RenderFn = std::function<void(
        const Cfg &cfg, const std::string &prefix, std::string &out)>;

    struct Key
    {
        /**
         * Bind @p key_name to the field @p get returns. @p get is a
         * captureless generic lambda, `[](auto &c) -> auto & { return
         * c.field; }`, used as both the mutable and the const accessor.
         * @p check, when given, vets a parsed value, as check(value,
         * key), before it is stored.
         */
        template <typename Get, typename Check = std::nullptr_t>
        Key(const char *key_name, Get get, Check check = nullptr)
            : Key(key_name, static_cast<FieldOf<Get> &(*)(Cfg &)>(get),
                  static_cast<const FieldOf<Get> &(*)(const Cfg &)>(get),
                  check)
        {
        }

        /** A hand-written entry. */
        Key(ApplyFn apply_fn, RenderFn render_fn)
            : apply(std::move(apply_fn)), render(std::move(render_fn))
        {
        }

        /** The key a field binding owns; null for a hand-written
         *  entry. */
        const char *name = nullptr;
        ApplyFn apply;
        RenderFn render;

      private:
        template <typename Get>
        using FieldOf =
            std::decay_t<decltype(std::declval<Get>()(std::declval<Cfg &>()))>;

        // The accessors arrive as plain function pointers, so the
        // closures below are one type per field type, not per key.
        template <typename T, typename Check>
        Key(const char *key_name, T &(*get)(Cfg &),
            const T &(*get_const)(const Cfg &), Check check)
            : name(key_name),
              apply([get, check](Cfg &cfg, const std::string &,
                                 const std::string &key,
                                 const std::string &value) {
                  T parsed{};
                  parseConfigValue(value, key, parsed);
                  if constexpr (!std::is_null_pointer_v<Check>)
                      check(parsed, key);
                  get(cfg) = std::move(parsed);
                  return true;
              }),
              render([key_name, get_const](const Cfg &cfg,
                                           const std::string &prefix,
                                           std::string &out) {
                  const T &value = get_const(cfg);
                  // An empty value is left out only when the default is
                  // empty too: an empty scenario must render to re-parse
                  // as empty.
                  if (isEmptyConfigValue(value) &&
                      isEmptyConfigValue(get_const(defaults())))
                      return;
                  const std::string key = prefix + key_name;
                  out += key + " = " + renderConfigValue(value, key) + "\n";
              })
        {
        }
    };

    ConfigTable(std::initializer_list<Key> keys) : keys_(keys)
    {
        for (std::size_t k = 0; k < keys_.size(); ++k) {
            if (keys_[k].name != nullptr &&
                !byName_.emplace(keys_[k].name, k).second) {
                throw std::logic_error(std::string("config: key ") +
                                       keys_[k].name + " declared twice");
            }
        }
    }

    /** Apply @p key (called @p name within this table); false when no
     *  entry owns it. Throws std::invalid_argument for a bad value. */
    bool
    apply(Cfg &cfg, const std::string &name, const std::string &key,
          const std::string &value) const
    {
        const auto it = byName_.find(name);
        if (it != byName_.end())
            return keys_[it->second].apply(cfg, name, key, value);
        for (const Key &k : keys_) {
            if (k.name == nullptr && k.apply(cfg, name, key, value))
                return true;
        }
        return false;
    }

    bool
    apply(Cfg &cfg, const std::string &key, const std::string &value) const
    {
        return apply(cfg, key, key, value);
    }

    /** Append every entry's lines in table order. */
    void
    render(const Cfg &cfg, std::string &out,
           const std::string &prefix = "") const
    {
        for (const Key &k : keys_)
            k.render(cfg, prefix, out);
    }

    /** @p key with its lines rendered only when @p when holds. */
    static Key
    renderedIf(bool (*when)(const Cfg &), Key key)
    {
        RenderFn render = std::move(key.render);
        key.render = [when, render](const Cfg &cfg,
                                    const std::string &prefix,
                                    std::string &out) {
            if (when(cfg))
                render(cfg, prefix, out);
        };
        return key;
    }

    /**
     * The `<family>[N].<field>` keys over the list @p get returns: the
     * list grows on demand, so entries may be configured in any order,
     * up to @p limit entries; @p fields is the element table (a
     * function-local static, so it outlives the entry).
     */
    template <typename Elem, typename Get>
    static Key
    indexed(const char *family, std::size_t limit, Get get,
            const ConfigTable<Elem> &fields)
    {
        return Key(
            [family, limit, get, &fields](Cfg &cfg, const std::string &name,
                                          const std::string &key,
                                          const std::string &value) {
                std::size_t index = 0;
                std::string field;
                if (!splitIndexedConfigKey(name, family, limit, key, index,
                                           field))
                    return false;
                std::vector<Elem> &items = get(cfg);
                if (items.size() <= index)
                    items.resize(index + 1);
                if (!fields.apply(items[index], field, key, value)) {
                    throw std::invalid_argument("config: unknown field '" +
                                                field + "' in '" + key +
                                                "'");
                }
                return true;
            },
            [family, get, &fields](const Cfg &cfg, const std::string &prefix,
                                   std::string &out) {
                const std::vector<Elem> &items = get(cfg);
                for (std::size_t k = 0; k < items.size(); ++k) {
                    fields.render(items[k], out,
                                  prefix + family + "[" +
                                      std::to_string(k) + "].");
                }
            });
    }

  private:
    static const Cfg &
    defaults()
    {
        static const Cfg cfg = Cfg();
        return cfg;
    }

    std::vector<Key> keys_;
    std::unordered_map<std::string, std::size_t> byName_;
};

} // namespace autocat

#endif // AUTOCAT_CORE_CONFIG_TABLE_HPP
