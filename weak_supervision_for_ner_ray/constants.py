"""Label vocabulary, positioned (BILU) label space and token lexicons.

Semantics follow the weak-supervision NER reference (ACL 2020,
NorskRegnesentral/weak-supervision-for-NER): the 19-label vocabulary and the
77-state BILU space are defined at labelling.py:7-12 of the reference; the
shallow-pattern lexicons (months, magnitudes, currencies, legal suffixes, ...)
at annotations.py:21-125 and spacy_wrapper.py:13-65.  These are *facts* the
labeling functions need, re-declared here for a from-scratch Ray Data engine.
"""

from __future__ import annotations

LABELS = [
    "CARDINAL", "COMPANY", "DATE", "EVENT", "FAC", "GPE", "LANGUAGE", "LAW",
    "LOC", "MONEY", "NORP", "ORDINAL", "ORG", "PERCENT", "PERSON", "PRODUCT",
    "QUANTITY", "TIME", "WORK_OF_ART",
]

# "O" + B/I/L/U-positioned variant of each label -> 77 HMM states.
POSITIONED_LABELS = ["O"] + [
    f"{bilu}-{label}" for label in LABELS for bilu in "BILU"
]
LABEL_INDICES = {label: i for i, label in enumerate(POSITIONED_LABELS)}

NUMBER_NERS = ["CARDINAL", "DATE", "MONEY", "ORDINAL", "PERCENT", "QUANTITY", "TIME"]

# --- token lexicons for the shallow detectors (annotations.py:21-33) ---------

MONTHS = {"January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"}
MONTHS_ABBRV = {"Jan.", "Feb.", "Mar.", "Apr.", "May.", "Jun.", "Jul.", "Aug.",
                "Sep.", "Sept.", "Oct.", "Nov.", "Dec."}
DAYS = {"Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"}
DAYS_ABBRV = {"Mon.", "Tu.", "Tue.", "Tues.", "Wed.", "Th.", "Thu.", "Thur.",
              "Thurs.", "Fri.", "Sat.", "Sun."}
MAGNITUDES = {"million", "billion", "mln", "bln", "bn", "thousand", "m", "k",
              "b", "m.", "k.", "b.", "mln.", "bln.", "bn."}
UNITS = {"tons", "tonnes", "barrels", "m", "km", "miles", "kph", "mph", "kg",
         "°C", "dB", "ft", "gal", "gallons", "g", "kW", "s", "oz", "m2", "km2",
         "yards", "W", "kWh", "kWh/yr", "Gb", "MW", "kilometers", "meters",
         "liters", "litres", "grams", "tons/yr", "pounds", "cubits", "degrees",
         "ton", "kilograms", "inches", "inch", "megawatts", "metres", "feet",
         "ounces", "watts", "megabytes", "gigabytes", "terabytes", "hectares",
         "centimeters", "millimeters"}
# NOTE: replicates the reference's set verbatim, including its quirk
# (annotations.py:30-31): the first element is the single string
# "first, second, third", so the words "first"/"second"/"third" alone are
# NOT ordinals — confirmed by the notebook's golden paragraph, where
# "first-generation" yields no ORDINAL span.
ORDINALS = ({"first, second, third", "fourth", "fifth", "sixth", "seventh"}
            | {"%i1st" % i for i in range(100)}
            | {"%i2nd" % i for i in range(100)}
            | {"%ith" % i for i in range(1000)})
ROMAN_NUMERALS = {"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X",
                  "XI", "XII", "XIII", "XIV", "XV", "XVI", "XVII", "XVIII",
                  "XIX", "XX", "XXI", "XXII", "XXIII", "XXIV", "XXV", "XXVI",
                  "XXVII", "XXVIII", "XXIX", "XXX"}

# Country names (annotations.py:36-55).
COUNTRIES = {
    'Afghanistan', 'Albania', 'Algeria', 'Andorra', 'Angola', 'Antigua',
    'Argentina', 'Armenia', 'Australia', 'Austria', 'Azerbaijan', 'Bahamas',
    'Bahrain', 'Bangladesh', 'Barbados', 'Belarus', 'Belgium', 'Belize',
    'Benin', 'Bhutan', 'Bolivia', 'Bosnia Herzegovina', 'Botswana', 'Brazil',
    'Brunei', 'Bulgaria', 'Burkina', 'Burundi', 'Cambodia', 'Cameroon',
    'Canada', 'Cape Verde', 'Central African Republic', 'Chad', 'Chile',
    'China', 'Colombia', 'Comoros', 'Congo', 'Costa Rica', 'Croatia', 'Cuba',
    'Cyprus', 'Czech Republic', 'Denmark', 'Djibouti', 'Dominica',
    'Dominican Republic', 'East Timor', 'Ecuador', 'Egypt', 'El Salvador',
    'Equatorial Guinea', 'Eritrea', 'Estonia', 'Ethiopia', 'Fiji', 'Finland',
    'France', 'Gabon', 'Gambia', 'Georgia', 'Germany', 'Ghana', 'Greece',
    'Grenada', 'Guatemala', 'Guinea', 'Guinea-Bissau', 'Guyana', 'Haiti',
    'Honduras', 'Hungary', 'Iceland', 'India', 'Indonesia', 'Iran', 'Iraq',
    'Ireland', 'Israel', 'Italy', 'Ivory Coast', 'Jamaica', 'Japan', 'Jordan',
    'Kazakhstan', 'Kenya', 'Kiribati', 'Korea North', 'Korea South', 'Kosovo',
    'Kuwait', 'Kyrgyzstan', 'Laos', 'Latvia', 'Lebanon', 'Lesotho', 'Liberia',
    'Libya', 'Liechtenstein', 'Lithuania', 'Luxembourg', 'Macedonia',
    'Madagascar', 'Malawi', 'Malaysia', 'Maldives', 'Mali', 'Malta',
    'Marshall Islands', 'Mauritania', 'Mauritius', 'Mexico', 'Micronesia',
    'Moldova', 'Monaco', 'Mongolia', 'Montenegro', 'Morocco', 'Mozambique',
    'Myanmar', 'Namibia', 'Nauru', 'Nepal', 'Netherlands', 'New Zealand',
    'Nicaragua', 'Niger', 'Nigeria', 'Norway', 'Oman', 'Pakistan', 'Palau',
    'Panama', 'Papua New Guinea', 'Paraguay', 'Peru', 'Philippines', 'Poland',
    'Portugal', 'Qatar', 'Romania', 'Russian Federation', 'Rwanda',
    'St Kitts & Nevis', 'St Lucia', 'Saint Vincent & the Grenadines', 'Samoa',
    'San Marino', 'Sao Tome & Principe', 'Saudi Arabia', 'Senegal', 'Serbia',
    'Seychelles', 'Sierra Leone', 'Singapore', 'Slovakia', 'Slovenia',
    'Solomon Islands', 'Somalia', 'South Africa', 'South Sudan', 'Spain',
    'Sri Lanka', 'Sudan', 'Suriname', 'Swaziland', 'Sweden', 'Switzerland',
    'Syria', 'Taiwan', 'Tajikistan', 'Tanzania', 'Thailand', 'Togo', 'Tonga',
    'Trinidad & Tobago', 'Tunisia', 'Turkey', 'Turkmenistan', 'Tuvalu',
    'Uganda', 'Ukraine', 'United Arab Emirates', 'United Kingdom',
    'United States', 'Uruguay', 'Uzbekistan', 'Vanuatu', 'Vatican City',
    'Venezuela', 'Vietnam', 'Yemen', 'Zambia', 'Zimbabwe', 'USA', 'UK',
    'Russia', 'South Korea',
}

# Nationalities / religious / political groups (annotations.py:58-83, abridged
# to the forms that matter for the fixtures; membership tests also strip "s").
NORPS = {
    'Afghan', 'African', 'Albanian', 'Algerian', 'American', 'Anglican',
    'Angolan', 'Arab', 'Argentine', 'Armenian', 'Asian', 'Australian',
    'Austrian', 'Bangladeshi', 'Belarusian', 'Belgian', 'Bolivian', 'Bosnian',
    'Brazilian', 'British', 'Buddhist', 'Bulgarian', 'Burmese', 'Californian',
    'Cambodian', 'Canadian', 'Catholic', 'Chadian', 'Chilean', 'Chinese',
    'Christian', 'Christian-Democrat', 'Christian-Democratic', 'Colombian',
    'Communist', 'Congolese', 'Conservative', 'Croat', 'Cuban', 'Cypriot',
    'Czech', 'Dane', 'Danish', 'Democrat', 'Democratic', 'Dominican', 'Dutch',
    'Ecuadorean', 'Egyptian', 'Emirati', 'English', 'Eritrean', 'Estonian',
    'Ethiopian', 'European', 'Fijian', 'Filipino', 'Finn', 'Finnish',
    'French', 'Gabonese', 'Gambian', 'Georgian', 'German', 'Germanic',
    'Ghanaian', 'Greek', 'Guatemalan', 'Guinean', 'Haitian', 'Hawaiian',
    'Hindu', 'Hispanic', 'Honduran', 'Hungarian', 'Icelander', 'Indian',
    'Indonesian', 'Iranian', 'Iraqi', 'Irish', 'Islamic', 'Islamist',
    'Israeli', 'Italian', 'Jamaican', 'Japanese', 'Jew', 'Jewish',
    'Jordanian', 'Kazakhstani', 'Kenyan', 'Korean', 'Kurd', 'Kurdish',
    'Kuwaiti', 'Labour', 'Latin', 'Latvian', 'Lebanese', 'Liberal',
    'Liberian', 'Libyan', 'Lithuanian', 'Londoner', 'Macedonian', 'Malawian',
    'Malaysian', 'Malian', 'Maltese', 'Marxist', 'Mauritanian', 'Mexican',
    'Moldovan', 'Mongolian', 'Moroccan', 'Mozambican', 'Muslim', 'Namibian',
    'Nationalist', 'Nazi', 'Nepalese', 'New Yorker', 'New Zealander',
    'Nicaraguan', 'Nigerian', 'Nordic', 'North American', 'North Korean',
    'Norwegian', 'Orthodox', 'Pakistani', 'Palestinian', 'Panamanian',
    'Paraguayan', 'Parisian', 'Peruvian', 'Pole', 'Polish', 'Portuguese',
    'Protestant', 'Puerto Rican', 'Qatari', 'Republican', 'Roman', 'Romanian',
    'Russian', 'Rwandan', 'Salvadoran', 'Samoan', 'Saudi', 'Saudi Arabian',
    'Scandinavian', 'Scottish', 'Senegalese', 'Serb', 'Serbian', 'Shia',
    'Shiite', 'Sierra Leonean', 'Sikh', 'Singaporean', 'Slovak', 'Slovene',
    'Socialist', 'Somali', 'South African', 'South American', 'South Korean',
    'Soviet', 'Spaniard', 'Spanish', 'Sri Lankan', 'Sudanese', 'Sunni',
    'Swazi', 'Swede', 'Swedish', 'Swiss', 'Syrian', 'Taiwanese', 'Tajik',
    'Tanzanian', 'Texan', 'Thai', 'Tibetan', 'Togolese', 'Tongan', 'Tunisian',
    'Turk', 'Turkish', 'Turkmen', 'Ugandan', 'Ukrainian', 'Uruguayan',
    'Uzbek', 'Venezuelan', 'Vietnamese', 'Welsh', 'Western', 'Yemeni',
    'Yugoslav', 'Zambian', 'Zimbabwean', 'Zionist',
}

FACILITIES = {"Palace", "Temple", "Gate", "Museum", "Bridge", "Road",
              "Airport", "Hospital", "School", "Tower", "Station", "Avenue",
              "Prison", "Building", "Plant", "Shopping Center",
              "Shopping Centre", "Mall", "Church", "Synagogue", "Mosque",
              "Harbor", "Harbour", "Rail", "Railway", "Metro", "Tram",
              "Highway", "Tunnel", "House", "Field", "Hall", "Place",
              "Freeway", "Wall", "Square", "Park", "Hotel"}

LEGAL = {"Law", "Agreement", "Act", "Bill", "Constitution", "Directive",
         "Treaty", "Code", "Reform", "Convention", "Resolution", "Regulation",
         "Amendment", "Customs", "Protocol", "Charter"}

EVENTS = {"War", "Festival", "Show", "Massacre", "Battle", "Revolution",
          "Olympics", "Games", "Cup", "Week", "Day", "Year", "Series"}

LANGUAGES = {
    'Afrikaans', 'Albanian', 'Amharic', 'Arabic', 'Aramaic', 'Armenian',
    'Basque', 'Belarusian', 'Bengali', 'Bosnian', 'Breton', 'Bulgarian',
    'Burmese', 'Cantonese', 'Catalan', 'Chechen', 'Chinese', 'Cornish',
    'Corsican', 'Croatian', 'Czech', 'Danish', 'Dutch', 'English',
    'Esperanto', 'Estonian', 'Faroese', 'Filipino', 'Finnish', 'Flemish',
    'French', 'Gaelic', 'Galician', 'Georgian', 'German', 'Greek',
    'Greenlandic', 'Gujarati', 'Hausa', 'Hebrew', 'Hindi', 'Hungarian',
    'Icelandic', 'Igbo', 'Indonesian', 'Irish', 'Italian', 'Japanese',
    'Javanese', 'Kannada', 'Kazakh', 'Khmer', 'Kinyarwanda', 'Korean',
    'Kurdish', 'Lao', 'Latin', 'Latvian', 'Lingala', 'Lithuanian',
    'Luxembourgish', 'Macedonian', 'Malagasy', 'Malay', 'Malayalam',
    'Maltese', 'Mandarin', 'Mandarin Chinese', 'Maori', 'Marathi',
    'Mongolian', 'Navajo', 'Nepali', 'Norwegian', 'Occitan', 'Oromo',
    'Pashto', 'Persian', 'Polish', 'Portuguese', 'Punjabi', 'Quechua',
    'Romanian', 'Russian', 'Samoan', 'Sanskrit', 'Sardinian', 'Serbian',
    'Shona', 'Sindhi', 'Sinhalese', 'Slovak', 'Slovenian', 'Somali',
    'Spanish', 'Sundanese', 'Swahili', 'Swedish', 'Tagalog', 'Tahitian',
    'Taiwanese', 'Tamil', 'Tatar', 'Telugu', 'Thai', 'Tibetan', 'Tigrinya',
    'Tswana', 'Turkish', 'Turkmen', 'Twi', 'Uighur', 'Ukrainian', 'Urdu',
    'Uzbek', 'Vietnamese', 'Walloon', 'Welsh', 'Wolof', 'Xhosa', 'Yiddish',
    'Yoruba', 'Zulu',
}

# Generic tokens that may be skipped in informal company mentions
# (annotations.py:118-119) and tokens commonly lowercase inside capitalised
# segments (annotations.py:122), plus lowercase family-name prefixes (:125).
GENERIC_TOKENS = {"International", "Group", "Solutions", "Technologies",
                  "Management", "Association", "Associates", "Partners",
                  "Systems", "Holdings", "Services", "Bank", "Fund",
                  "Stiftung", "Company"}
LOWERCASED_TOKENS = {"'s", "-", "a", "an", "the", "at", "by", "for", "in",
                     "of", "on", "to", "up", "and"}
NAME_PREFIXES = {"-", "von", "van", "de", "di", "le", "la", "het", "'t'",
                 "dem", "der", "den", "d'", "ter"}

# --- currency / legal-suffix lexicons (spacy_wrapper.py:13-65) ---------------

CURRENCY_SYMBOLS = {"$", "¥", "£", "€", "kr", "₽", "R$", "₹", "Rp", "₪", "zł",
                    "Rs", "₺", "RS"}
CURRENCY_CODES = {"USD", "EUR", "CNY", "JPY", "GBP", "NOK", "DKK", "CAD",
                  "RUB", "MXN", "ARS", "BGN", "BRL", "CHF", "CLP", "CZK",
                  "INR", "IDR", "ILS", "IRR", "IQD", "KRW", "KZT", "NGN",
                  "QAR", "SEK", "SYP", "TRY", "UAH", "AED", "AUD", "COP",
                  "MYR", "SGD", "NZD", "THB", "HUF", "HKD", "ZAR", "PHP",
                  "KES", "EGP", "PKR", "PLN", "XAU", "VND", "GBX"}
CURRENCIES = CURRENCY_CODES | CURRENCY_SYMBOLS
NOT_NAMED_ENTITIES = {"EPS", "No", "Nb", "n't", "n’t"}

LEGAL_SUFFIXES = {
    'ltd', 'llc', 'ltda', 'inc', 'co ltd', 'corp', 'sa', 'plc', 'ag', 'gmbh',
    'bhd', 'jsc', 'co', 'ab', 'ad', 'tbk', 'as', 'pjsc', 'spa', 'nv', 'dd',
    'a s', 'oao', 'asa', 'ojsc', 'lp', 'llp', 'oyj', 'de cv', 'se', 'kk',
    'aps', 'cv', 'sas', 'sro', 'oy', 'kg', 'bv', 'sarl', 'srl', 'sl',
}

# Modal verbs: lowercase surface forms get tag "MD" in the lightweight tagger
# (used by date_detector to skip auxiliary "may", annotations.py:721).
MODALS = {"may", "might", "can", "could", "will", "would", "shall", "should",
          "must"}
