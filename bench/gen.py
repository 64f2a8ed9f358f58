"""Seeded synthetic inputs for the benchmark workloads.

Everything here is stdlib only: the program sees nothing but the files these
functions write. The same seed and size give byte-identical files, and each
writer returns the ground truth the output check compares against (counts
the generator knows by construction: Easy picks, decomposition outcomes,
verdicts per model).

Inputs the current program aborts on are left out on purpose: ``÷ 0`` calc
lines, operands of 10^18 or more, and U+2028 / U+0085 inside text. See
README.md, "Data limits".
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from pathlib import Path

# Source files get a fixed mtime: ingest stamps manifests with it, so every
# artifact is a pure function of (seed, size).
FIXED_MTIME = 1_700_000_000

DEVANAGARI = str.maketrans("0123456789", "०१२३४५६७८९")

NAMES_EN = ("Asha", "Ravi", "Meera", "Arjun", "Lena", "Tomas", "Priya", "Kabir",
            "Sara", "Vikram", "Nina", "Omar")
ITEMS_EN = ("apples", "pencils", "marbles", "books", "stickers", "coins",
            "mangoes", "tickets", "cookies", "stamps")
NAMES_HI = ("राम", "सीता", "मोहन", "गीता", "अमित", "प्रिया", "रवि", "कविता")
ITEMS_HI = ("सेब", "पेंसिल", "किताबें", "आम", "सिक्के", "टॉफ़ियाँ", "गेंदें", "फूल")
MATH_TOPICS = ("Prealgebra", "Algebra", "Number Theory", "Counting & Probability",
               "Geometry", "Intermediate Algebra", "Precalculus")
EXPRESSIONS = ("x^2+3x", "2x-5", "\\sqrt{13}", "3\\pi", "(x-1)(x+4)", "y^2-4y+4",
               "\\frac{\\sqrt{3}}{2}", "4x^3-x")


def _deva(value) -> str:
    return str(value).translate(DEVANAGARI)


def _decimal(value: Fraction) -> str | None:
    """Exact decimal spelling of a non-negative terminating fraction, else None."""
    places = 0
    while (value * 10**places).denominator != 1:
        places += 1
        if places > 12:
            return None
    digits = str((value * 10**places).numerator).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}" if places else digits


def _render_number(value: Fraction, rng: random.Random, latex: bool = False) -> str:
    """An ASCII spelling of ``value`` that extract_answer parses back exactly."""
    if value.denominator == 1:
        return str(value.numerator)
    decimal = _decimal(value)
    if decimal is not None and rng.random() < 0.5:
        return decimal
    if latex:
        return f"\\frac{{{value.numerator}}}{{{value.denominator}}}"
    return f"{value.numerator}/{value.denominator}"


def _touch(path: Path) -> None:
    os.utime(path, (FIXED_MTIME, FIXED_MTIME))


def write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows),
                    encoding="utf-8")
    _touch(path)


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _touch(path)


# ---------------------------------------------------------------------------
# records


def _gsm8k(rng: random.Random):
    name = rng.choice(NAMES_EN)
    item = rng.choice(ITEMS_EN)
    value = rng.randint(5, 60)
    sentences = [f"{name} has {value} {item}."]
    steps = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(("buy", "give", "each", "double"))
        if kind == "buy":
            n = rng.randint(2, 40)
            sentences.append(f"Then {name} buys {n} more {item} at the market.")
            steps.append(f"{value} + {n} = <<{value}+{n}={value + n}>>{value + n}")
            value += n
        elif kind == "give" and value > 2:
            n = rng.randint(1, value - 1)
            sentences.append(f"After that, {name} gives {n} {item} to a friend "
                             f"because the friend asked politely.")
            steps.append(f"{value} - {n} = <<{value}-{n}={value - n}>>{value - n}")
            value -= n
        elif kind == "each":
            n = rng.randint(2, 6)
            sentences.append(f"Each of {n} cousins brings the same number of {item}, "
                             f"and they put all of them together.")
            steps.append(f"{value} * {n} = <<{value}*{n}={value * n}>>{value * n}")
            value *= n
        else:
            sentences.append(f"Next, the pile of {item} doubles in size.")
            steps.append(f"{value} * 2 = <<{value}*2={value * 2}>>{value * 2}")
            value *= 2
    sentences.append(f"How many {item} does {name} have in total?")
    answer = "\n".join(steps + [f"#### {value}"])
    return {"question": " ".join(sentences), "answer": answer}, Fraction(value)


def _math(rng: random.Random, level: int):
    topic = rng.choice(MATH_TOPICS)
    a, b = rng.randint(2, 30), rng.randint(2, 30)
    roll = rng.random()
    if roll < 0.6:
        answer = Fraction(a * b + level)
        shown = str(answer.numerator)
        truth = answer
    elif roll < 0.85:
        answer = Fraction(a, b + level)
        if answer.denominator == 1:
            answer += Fraction(1, 2)
        shown = _render_number(answer, rng, latex=True)
        truth = answer
    else:
        shown = rng.choice(EXPRESSIONS)
        truth = shown
    question = (f"Let $f(x) = {a}x^2 + {b}x + {level}$. For the {topic.lower()} "
                f"setting with parameters ${a}$ and ${b}$, compute the requested "
                f"quantity and simplify the result completely.")
    solution = (f"We expand the definition using $a = {a}$ and $b = {b}$. "
                f"Collecting terms gives the value $\\boxed{{{shown}}}$.")
    row = {"problem": question, "level": f"Level {level}", "type": topic,
           "solution": solution}
    return row, truth


_HAWP_QUESTION = {
    "add": "{name} के पास {a} {item} हैं। उसे {b} {item} और मिलते हैं। अब कुल कितने {item} हैं?",
    "sub": "{name} के पास {a} {item} थे। उसने {b} {item} दे दिए। अब कितने {item} बचे?",
    "mul": "एक डिब्बे में {b} {item} हैं। {a} डिब्बों में कुल कितने {item} होंगे?",
    "div": "{a} {item} को {b} बच्चों में बराबर बाँटा गया। प्रत्येक को कितने {item} मिले?",
}


def hawp_record(rng: random.Random, op: str, flagged: bool):
    name, item = rng.choice(NAMES_HI), rng.choice(ITEMS_HI)
    if op in ("add", "sub"):
        a, b = rng.randint(10, 9999), rng.randint(1, 999)
        if op == "sub":
            a += b
        result = Fraction(a + b if op == "add" else a - b)
        symbol = "+" if op == "add" else "-"
    elif op == "mul":
        a, b = rng.randint(11, 999_999), rng.randint(2, 999)
        result = Fraction(a * b)
        symbol = "×"
    else:
        b = rng.choice((2, 4, 5, 8, 16, 20, 25, 32, 40, 3, 7, 12, 15, 24))
        quotient = rng.randint(3, 99_999)
        # Remainders only where the quotient still terminates as a decimal.
        remainder = rng.randrange(b) if b in (2, 4, 5, 8, 16, 20, 25, 32, 40) else 0
        a = quotient * b + remainder
        result = Fraction(a, b)
        symbol = "÷"
    question = _HAWP_QUESTION[op].format(name=name, item=item, a=a, b=b)
    if flagged:
        solution = f"{name} के {item} का हिसाब लगाएँ।"
        truth = None
    else:
        line = f"{a} {symbol} {b} = {_decimal(result)}"
        if rng.random() < 0.3:
            line = _deva(line)
        solution = f"{name} के {item} गिनते हैं।\n{line}"
        truth = result
    return {"question": question, "operation": op.capitalize(), "solution": solution}, truth


def _imqa(rng: random.Random):
    a, b = rng.randint(3, 99), rng.randint(2, 40)
    item_en, item_hi = rng.choice(ITEMS_EN), rng.choice(ITEMS_HI)
    total = a * b
    en = {"question": f"A shop packs {a} {item_en} in every box. How many {item_en} "
                      f"are there in {b} boxes?",
          "solution": f"Each box holds {a} {item_en}.\nTotal = {a} × {b} = {total}.\n"
                      f"Final Answer: {total}"}
    hi = {"question": f"एक दुकान हर डिब्बे में {a} {item_hi} रखती है। {b} डिब्बों में "
                      f"कितने {item_hi} होंगे?",
          "solution": f"हर डिब्बे में {_deva(a)} {item_hi} हैं।\n"
                      f"कुल = {_deva(a)} × {_deva(b)} = {_deva(total)}।\nउत्तर: {_deva(total)}"}
    return en, hi, Fraction(total)


# ---------------------------------------------------------------------------
# predictions

STYLES = ("boxed", "final_en", "final_hi", "hash", "fallback")
MODELS = ("model-a", "model-b", "model-c", "model-d", "model-e", "model-f")


def _prediction(rng: random.Random, truth, correct_share: float):
    """One model output and the verdict extract_answer + grade must give it."""
    roll = rng.random()
    # Outputs that are not correct split 65/35 between wrong and unparseable.
    if roll >= correct_share + (1 - correct_share) * 0.65:
        text = rng.choice(("I could not work this one out.",
                           "मैं इसे हल नहीं कर सका।",
                           "The problem needs more information."))
        return text, "Unparseable"
    correct = roll < correct_share
    verdict = "Correct" if correct else "Incorrect"
    if isinstance(truth, str):  # an expression answer
        shown = truth if correct else truth + "+1"
        return f"Simplifying, the answer is \\boxed{{{shown}}}.", verdict
    # Wrong answers miss by far more than the grader's 1e-6 relative tolerance.
    value = truth if correct else 2 * truth + 1
    style = rng.choice(STYLES)
    if style == "fallback" and value.denominator != 1:
        style = "final_en"
    # Prediction files escape newlines as a literal backslash-n.
    if style == "boxed":
        shown = _render_number(value, rng, latex=True)
        text = f"We compute step by step.\\nThus the answer is \\boxed{{{shown}}}."
    elif style == "final_en":
        text = f"Working it through.\\nFinal Answer: {_render_number(value, rng)}"
    elif style == "final_hi":
        text = f"गणना करते हैं।\\nअंतिम उत्तर: {_deva(_render_number(value, rng))}"
    elif style == "hash":
        text = f"Adding everything up gives the total.\\n#### {_render_number(value, rng)}"
    else:
        groups = rng.randint(2, 9)
        text = f"First we note {groups} groups, so the result is {value.numerator} in total."
    return text, verdict


def write_predictions(path: Path, rng: random.Random, truths: dict, correct_share: float):
    """Write one model's prediction file; returns its expected verdict counts."""
    counts = {"Correct": 0, "Incorrect": 0, "Unparseable": 0}
    lines = []
    for problem_id, truth in truths.items():
        text, verdict = _prediction(rng, truth, correct_share)
        counts[verdict] += 1
        lines.append(f"{problem_id}\t{text}")
    _write_lines(path, lines)
    return counts


# ---------------------------------------------------------------------------
# corpora


def prep_mix(size: int) -> dict:
    """Record counts per source for a prep corpus of ``size`` problems."""
    gsm8k = size * 3 // 10
    math = size // 5
    pairs = size // 10
    hawp = size - gsm8k - math - 2 * pairs
    return {"gsm8k": gsm8k, "math": math, "hawp": hawp, "imqa_pairs": pairs}


def write_prep_inputs(out: Path, seed: int, size: int, models=MODELS[:2]) -> dict:
    """Write the mixed prep corpus, annotation files and predictions.

    Returns the ground truth: counts per source, the bottom-k setting, the
    expected decomposition outcome, the expected Easy/Medium/Hard tallies and,
    per model, the expected verdict counts.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"prep:{seed}:{size}")
    mix = prep_mix(size)
    truths: dict[str, object] = {}
    difficulty = {"Easy": 0, "Medium": 0, "Hard": 0}

    rows = []
    for lineno in range(1, mix["gsm8k"] + 1):
        row, truth = _gsm8k(rng)
        rows.append(row)
        truths[f"gsm8k-{lineno:06d}"] = truth
    write_jsonl(out / "gsm8k.jsonl", rows)
    bottom_k = mix["gsm8k"] * 2 // 5
    difficulty["Easy"] += bottom_k

    rows = []
    levels = [1 + i % 5 for i in range(mix["math"])]
    rng.shuffle(levels)
    for lineno, level in enumerate(levels, start=1):
        row, truth = _math(rng, level)
        rows.append(row)
        truths[f"math-{lineno:06d}"] = truth
        difficulty["Easy" if level == 1 else "Medium" if level <= 3 else "Hard"] += 1
    write_jsonl(out / "math.jsonl", rows)

    ops = ["add", "sub", "mul", "mul", "mul", "div", "div", "div", "add", "sub"]
    ops = [ops[i % len(ops)] for i in range(mix["hawp"])]
    rng.shuffle(ops)
    muldiv = [i for i, op in enumerate(ops) if op in ("mul", "div")]
    flagged = set(rng.sample(muldiv, max(1, len(muldiv) // 25)))
    rows, notes = [], []
    for index, op in enumerate(ops):
        row, truth = hawp_record(rng, op, index in flagged)
        rows.append(row)
        problem_id = f"hawp-{index + 1:06d}"
        if truth is not None:
            truths[problem_id] = truth
        label = "Easy" if op in ("add", "sub") else ("Medium" if index % 3 else "Hard")
        notes.append(f"{problem_id}\t{label}")
        difficulty[label] += 1
    write_jsonl(out / "hawp.jsonl", rows)
    _write_lines(out / "hawp_notes.tsv", notes)

    en_rows, hi_rows, notes = [], [], []
    for index in range(1, mix["imqa_pairs"] + 1):
        en, hi, truth = _imqa(rng)
        problem_id = f"imqa-{index:06d}"
        en_rows.append({"id": problem_id, **en})
        hi_rows.append({"id": problem_id, **hi})
        truths[f"{problem_id}-en"] = truth
        truths[f"{problem_id}-hi"] = truth
        label = ("Easy", "Medium", "Hard")[index % 3]
        notes.append(f"{problem_id}\t{label}")
        difficulty[label] += 2
    write_jsonl(out / "imqa_en.jsonl", en_rows)
    write_jsonl(out / "imqa_hi.jsonl", hi_rows)
    _write_lines(out / "imqa_notes.tsv", notes)

    verdicts = {}
    for rank, model in enumerate(models):
        model_rng = random.Random(f"pred:{seed}:{size}:{model}")
        verdicts[model] = write_predictions(out / f"pred_{model}.tsv", model_rng, truths,
                                            0.75 - 0.05 * rank)
    return {
        "size": size,
        "mix": mix,
        "bottom_k": bottom_k,
        "rewritten": len(muldiv) - len(flagged),
        "flagged": len(flagged),
        "difficulty": difficulty,
        "graded_problems": len(truths),
        "verdicts": verdicts,
    }


def write_augment_seeds(out: Path, seed: int, size: int) -> dict:
    """Seed problems for augmentation, in the id/question/solution layout."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"augment:{seed}:{size}")
    rows = []
    for index in range(1, size + 1):
        en, _, _ = _imqa(rng)
        rows.append({"id": f"seed-{index:06d}", **en,
                     "question": f"{en['question']} (variant {index})"})
    write_jsonl(out / "seeds.jsonl", rows)
    return {"seeds": size}
