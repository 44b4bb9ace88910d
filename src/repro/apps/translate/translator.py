"""Rule-based English -> Spanish translation.

Stands in for Apertium (paper Sec. VI-A), which is itself a rule-based
transfer system: a bilingual lexicon with part-of-speech and gender
tags, morphological handling of plurals, article agreement
(the -> el/la/los/las), and the adjective-noun reorder Spanish requires
("red car" -> "coche rojo").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.exceptions import SwingError

NOUN = "noun"
VERB = "verb"
ADJ = "adj"
DET = "det"
PRON = "pron"
PREP = "prep"
ADV = "adv"
CONJ = "conj"

MASC = "m"
FEM = "f"


@dataclass(frozen=True)
class LexEntry:
    """One bilingual lexicon entry."""

    spanish: str
    pos: str
    gender: Optional[str] = None  # nouns and adjectives


#: core bilingual lexicon (lemma form)
LEXICON: Dict[str, LexEntry] = {
    # determiners and pronouns
    "the": LexEntry("el", DET), "a": LexEntry("un", DET),
    "an": LexEntry("un", DET), "this": LexEntry("este", DET),
    "that": LexEntry("ese", DET), "my": LexEntry("mi", DET),
    "your": LexEntry("tu", DET), "i": LexEntry("yo", PRON),
    "you": LexEntry("tú", PRON), "he": LexEntry("él", PRON),
    "she": LexEntry("ella", PRON), "we": LexEntry("nosotros", PRON),
    "they": LexEntry("ellos", PRON),
    # nouns
    "man": LexEntry("hombre", NOUN, MASC), "woman": LexEntry("mujer", NOUN, FEM),
    "child": LexEntry("niño", NOUN, MASC), "friend": LexEntry("amigo", NOUN, MASC),
    "phone": LexEntry("teléfono", NOUN, MASC), "camera": LexEntry("cámara", NOUN, FEM),
    "device": LexEntry("dispositivo", NOUN, MASC), "face": LexEntry("cara", NOUN, FEM),
    "car": LexEntry("coche", NOUN, MASC), "house": LexEntry("casa", NOUN, FEM),
    "street": LexEntry("calle", NOUN, FEM), "city": LexEntry("ciudad", NOUN, FEM),
    "dog": LexEntry("perro", NOUN, MASC), "cat": LexEntry("gato", NOUN, MASC),
    "water": LexEntry("agua", NOUN, FEM), "food": LexEntry("comida", NOUN, FEM),
    "book": LexEntry("libro", NOUN, MASC), "door": LexEntry("puerta", NOUN, FEM),
    "day": LexEntry("día", NOUN, MASC), "night": LexEntry("noche", NOUN, FEM),
    "team": LexEntry("equipo", NOUN, MASC), "guard": LexEntry("guardia", NOUN, MASC),
    "video": LexEntry("vídeo", NOUN, MASC), "image": LexEntry("imagen", NOUN, FEM),
    "message": LexEntry("mensaje", NOUN, MASC), "network": LexEntry("red", NOUN, FEM),
    "battery": LexEntry("batería", NOUN, FEM), "signal": LexEntry("señal", NOUN, FEM),
    "time": LexEntry("tiempo", NOUN, MASC), "place": LexEntry("lugar", NOUN, MASC),
    "name": LexEntry("nombre", NOUN, MASC), "question": LexEntry("pregunta", NOUN, FEM),
    "answer": LexEntry("respuesta", NOUN, FEM), "traveler": LexEntry("viajero", NOUN, MASC),
    # verbs (present simple, third person used as default surface form)
    "is": LexEntry("es", VERB), "are": LexEntry("son", VERB),
    "have": LexEntry("tiene", VERB), "has": LexEntry("tiene", VERB),
    "see": LexEntry("ve", VERB), "sees": LexEntry("ve", VERB),
    "want": LexEntry("quiere", VERB), "wants": LexEntry("quiere", VERB),
    "need": LexEntry("necesita", VERB), "needs": LexEntry("necesita", VERB),
    "find": LexEntry("encuentra", VERB), "finds": LexEntry("encuentra", VERB),
    "run": LexEntry("corre", VERB), "runs": LexEntry("corre", VERB),
    "speak": LexEntry("habla", VERB), "speaks": LexEntry("habla", VERB),
    "work": LexEntry("trabaja", VERB), "works": LexEntry("trabaja", VERB),
    "go": LexEntry("va", VERB), "goes": LexEntry("va", VERB),
    "come": LexEntry("viene", VERB), "comes": LexEntry("viene", VERB),
    "take": LexEntry("toma", VERB), "takes": LexEntry("toma", VERB),
    "send": LexEntry("envía", VERB), "sends": LexEntry("envía", VERB),
    "help": LexEntry("ayuda", VERB), "helps": LexEntry("ayuda", VERB),
    # adjectives
    "red": LexEntry("rojo", ADJ, MASC), "blue": LexEntry("azul", ADJ),
    "big": LexEntry("grande", ADJ), "small": LexEntry("pequeño", ADJ, MASC),
    "good": LexEntry("bueno", ADJ, MASC), "bad": LexEntry("malo", ADJ, MASC),
    "fast": LexEntry("rápido", ADJ, MASC), "slow": LexEntry("lento", ADJ, MASC),
    "new": LexEntry("nuevo", ADJ, MASC), "old": LexEntry("viejo", ADJ, MASC),
    "white": LexEntry("blanco", ADJ, MASC), "black": LexEntry("negro", ADJ, MASC),
    "strong": LexEntry("fuerte", ADJ), "weak": LexEntry("débil", ADJ),
    # prepositions / adverbs / conjunctions
    "in": LexEntry("en", PREP), "on": LexEntry("en", PREP),
    "with": LexEntry("con", PREP), "without": LexEntry("sin", PREP),
    "to": LexEntry("a", PREP), "from": LexEntry("de", PREP),
    "of": LexEntry("de", PREP), "here": LexEntry("aquí", ADV),
    "there": LexEntry("allí", ADV), "now": LexEntry("ahora", ADV),
    "very": LexEntry("muy", ADV), "and": LexEntry("y", CONJ),
    "or": LexEntry("o", CONJ), "not": LexEntry("no", ADV),
    "hello": LexEntry("hola", ADV), "please": LexEntry("por favor", ADV),
    "where": LexEntry("dónde", ADV), "what": LexEntry("qué", ADV),
}

#: irregular English plurals the morphology pass must know
IRREGULAR_PLURALS: Dict[str, str] = {
    "children": "child", "men": "man", "women": "woman",
    "cities": "city", "batteries": "battery",
}


@dataclass
class _Token:
    surface: str          # translated surface form
    pos: str
    gender: Optional[str]
    plural: bool
    known: bool


class Translator:
    """English -> Spanish sentence translator with transfer rules."""

    def __init__(self, mark_unknown: bool = True) -> None:
        self.mark_unknown = mark_unknown

    # -- public API --------------------------------------------------------
    def vocabulary(self) -> List[str]:
        """All English words the translator knows (lemma forms)."""
        return sorted(LEXICON)

    def translate(self, text_or_words) -> str:
        """Translate a sentence (string or word list) into Spanish."""
        words = (text_or_words.split() if isinstance(text_or_words, str)
                 else list(text_or_words))
        tokens = [self._lookup(word) for word in words if word]
        tokens = self._reorder_adjectives(tokens)
        tokens = self._agree_articles(tokens)
        return " ".join(token.surface for token in tokens)

    # -- lexical stage -----------------------------------------------------
    def _lookup(self, word: str) -> _Token:
        lower = word.lower().strip(".,!?;:")
        if not lower:
            return _Token(word, ADV, None, False, False)
        lemma, plural = self._lemmatize(lower)
        entry = LEXICON.get(lemma)
        if entry is None:
            surface = ("<%s>" % lower) if self.mark_unknown else lower
            return _Token(surface, NOUN, None, plural, False)
        surface = entry.spanish
        if plural and entry.pos in (NOUN, ADJ):
            surface = spanish_plural(surface)
        return _Token(surface, entry.pos, entry.gender, plural, True)

    @staticmethod
    def _lemmatize(word: str) -> Tuple[str, bool]:
        """Reduce an English surface form to (lemma, is_plural)."""
        if word in IRREGULAR_PLURALS:
            return IRREGULAR_PLURALS[word], True
        if word in LEXICON:
            return word, False
        if word.endswith("es") and word[:-2] in LEXICON:
            return word[:-2], True
        if word.endswith("s") and word[:-1] in LEXICON:
            lemma = word[:-1]
            if LEXICON[lemma].pos == NOUN:
                return lemma, True
            return lemma, False  # verb 3rd-person -s
        return word, False

    # -- transfer rules ----------------------------------------------------
    @staticmethod
    def _reorder_adjectives(tokens: List[_Token]) -> List[_Token]:
        """Spanish puts adjectives after nouns: "red car" -> "coche rojo"."""
        result: List[_Token] = []
        index = 0
        while index < len(tokens):
            token = tokens[index]
            if (token.pos == ADJ and index + 1 < len(tokens)
                    and tokens[index + 1].pos == NOUN):
                noun = tokens[index + 1]
                adjective = _agree_adjective(token, noun)
                result.extend([noun, adjective])
                index += 2
            else:
                result.append(token)
                index += 1
        return result

    @staticmethod
    def _agree_articles(tokens: List[_Token]) -> List[_Token]:
        """el/la/los/las and un/una agreement with the governed noun."""
        for index, token in enumerate(tokens):
            if token.pos != DET or not token.known:
                continue
            noun = _next_noun(tokens, index)
            if noun is None:
                continue
            if token.surface in ("el", "la", "los", "las"):
                token.surface = _definite_article(noun)
            elif token.surface in ("un", "una", "unos", "unas"):
                token.surface = _indefinite_article(noun)
        return tokens


def _next_noun(tokens: List[_Token], start: int) -> Optional[_Token]:
    for token in tokens[start + 1:start + 4]:
        if token.pos == NOUN:
            return token
    return None


def _definite_article(noun: _Token) -> str:
    if noun.gender == FEM:
        return "las" if noun.plural else "la"
    return "los" if noun.plural else "el"


def _indefinite_article(noun: _Token) -> str:
    if noun.gender == FEM:
        return "unas" if noun.plural else "una"
    return "unos" if noun.plural else "un"


def _agree_adjective(adjective: _Token, noun: _Token) -> _Token:
    """Inflect a Spanish adjective for the noun's gender and number."""
    surface = adjective.surface
    if noun.gender == FEM and surface.endswith("o"):
        surface = surface[:-1] + "a"
    elif noun.gender == FEM and surface.endswith("os"):
        surface = surface[:-2] + "as"
    if noun.plural and not surface.endswith("s"):
        surface = spanish_plural(surface)
    adjective.surface = surface
    return adjective


def spanish_plural(word: str) -> str:
    """Pluralize a Spanish noun or adjective."""
    if not word:
        raise SwingError("cannot pluralize an empty word")
    if word[-1] in "aeiouáéíóú":
        return word + "s"
    return word + "es"
